//! The metric tables: every metric's name, unit and direction, the layer
//! it belongs to, and — for per-layer metrics — the end-to-end metric and
//! workload it should move. `BENCHMARK.json` lists the same names; a unit
//! test keeps the two in step.

/// One metric definition.
pub struct Metric {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The layer (crate or module) the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric(s) and workload(s) it should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, better, layer, moves }
}

/// End-to-end metrics every workload reports with tracing off; these are
/// the ones `BENCHMARK.json` bounds.
pub const END_TO_END: &[Metric] = &[
    m("pass_s", "s", "lower", "end-to-end", "one pass (serve-session: one scripted round), wall time at the reference host speed"),
    m("setup_s", "s", "lower", "end-to-end", "building or printing inputs (serve-session: daemon spawn to first health reply), at the reference host speed"),
    m("peak_rss_mb", "MiB", "lower", "end-to-end", "VmHWM after set-up and the first pass, of the benchmark process; serve-session: of the daemon"),
];

/// End-to-end metrics that exist on one workload only. They are printed
/// and recorded with tracing off, but are not in `BENCHMARK.json`, whose
/// end-to-end metrics must be reported by every workload.
pub const WORKLOAD_ONLY: &[(&str, Metric)] = &[
    (
        "leak-table1",
        m("annotated_ms", "ms", "lower", "end-to-end", "summed wall time of the 7 Ann?=Y rows"),
    ),
    (
        "serve-session",
        m(
            "load_ms",
            "ms",
            "lower",
            "end-to-end",
            "load_program latency, summed over the round's apps",
        ),
    ),
    (
        "serve-session",
        m(
            "analyze_cold_ms",
            "ms",
            "lower",
            "end-to-end",
            "first analyze latency, summed over apps",
        ),
    ),
    (
        "serve-session",
        m(
            "analyze_warm_ms",
            "ms",
            "lower",
            "end-to-end",
            "repeat analyze latency, summed over apps",
        ),
    ),
    (
        "serve-session",
        m(
            "edit_answer_ms",
            "ms",
            "lower",
            "end-to-end",
            "edit plus the analyze after it, summed over apps",
        ),
    ),
];

/// Per-layer metrics, reported by the traced run. A workload that does
/// not exercise a layer reports 0 for it.
pub const PER_LAYER: &[Metric] = &[
    m("tir.parse_ms", "ms", "lower", "tir", "null-scaled pass_s; serve-session load_ms"),
    m("tir.parse_mb_per_s", "MB/s", "higher", "tir", "null-scaled pass_s; serve-session load_ms"),
    m(
        "pta.solve_ms",
        "ms",
        "lower",
        "pta",
        "null-scaled pass_s; serve-session load_ms; leak-table1 annotated_ms (not pass_s)",
    ),
    m(
        "pta.propagations",
        "count",
        "lower",
        "pta",
        "null-scaled pass_s; serve-session load_ms; leak-table1 annotated_ms",
    ),
    m(
        "pta.nodes",
        "count",
        "lower",
        "pta",
        "null-scaled pass_s; serve-session load_ms; leak-table1 annotated_ms",
    ),
    m(
        "pta.modref_ms",
        "ms",
        "lower",
        "pta",
        "null-scaled pass_s; serve-session load_ms; leak-table1 annotated_ms",
    ),
    m("android.find_alarms_ms", "ms", "lower", "android", "leak-table1 annotated_ms"),
    m("android.alarms", "count", "lower", "android", "leak-table1 annotated_ms"),
    m("null.candidates_ms", "ms", "lower", "core.null", "null-scaled pass_s"),
    m("null.sites", "count", "lower", "core.null", "null-scaled pass_s"),
    m(
        "symex.search_ms",
        "ms",
        "lower",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms (OpenSudoku)",
    ),
    m(
        "symex.path_programs",
        "count",
        "lower",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.cmds_executed",
        "count",
        "lower",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.loop_fixpoints",
        "count",
        "lower",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.loop_drop_all_fallbacks",
        "count",
        "lower",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.subsumed",
        "count",
        "higher",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.degraded_retries",
        "count",
        "lower",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.edges_refuted",
        "count",
        "higher",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.edges_witnessed",
        "count",
        "lower",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.edges_aborted",
        "count",
        "lower",
        "symex",
        "leak-table1 pass_s; serve-session analyze_cold_ms",
    ),
    m(
        "symex.decided_frac",
        "ratio",
        "higher",
        "symex",
        "leak-table1 pass_s; no change on null-scaled",
    ),
    m(
        "symex.path_programs_per_refuted_edge",
        "count",
        "lower",
        "symex",
        "leak-table1 pass_s; no change on null-scaled",
    ),
    m("solver.calls", "count", "lower", "solver", "leak-table1 pass_s"),
    m("solver.sat_frac", "ratio", "lower", "solver", "leak-table1 pass_s"),
    m("solver.ms", "ms", "lower", "solver", "leak-table1 pass_s"),
    m(
        "cache.hits",
        "count",
        "higher",
        "symex.persist",
        "serve-session analyze_warm_ms, peak_rss_mb",
    ),
    m(
        "cache.misses",
        "count",
        "lower",
        "symex.persist",
        "serve-session analyze_warm_ms, peak_rss_mb",
    ),
    m("cache.warm_hit_ratio", "ratio", "higher", "symex.persist", "serve-session analyze_warm_ms"),
    m("cache.store_bytes", "bytes", "lower", "symex.persist", "serve-session peak_rss_mb"),
    m("cache.bytes_per_record", "bytes", "lower", "symex.persist", "serve-session peak_rss_mb"),
    m("serve.queue_wait_ms", "ms", "lower", "core.serve", "every serve-session latency"),
    m("serve.server_wall_ms", "ms", "lower", "core.serve", "every serve-session latency"),
    m("serve.transport_ms", "ms", "lower", "core.serve", "every serve-session latency"),
    m(
        "serve.symex_ms",
        "ms",
        "lower",
        "core.serve",
        "serve-session analyze_cold_ms, analyze_warm_ms",
    ),
    m("serve.cache_ms", "ms", "lower", "core.serve", "serve-session load_ms, analyze_warm_ms"),
    m("edit.apply_ms", "ms", "lower", "tir.edit", "serve-session edit_answer_ms"),
    m("edit.pta_ms", "ms", "lower", "pta.incremental", "serve-session edit_answer_ms"),
    m("edit.propagations", "count", "lower", "pta.incremental", "serve-session edit_answer_ms"),
    m("edit.changed_methods", "count", "lower", "pta.incremental", "serve-session edit_answer_ms"),
    m("edit.cache_invalidated", "count", "lower", "symex.persist", "serve-session edit_answer_ms"),
    m(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "perfbench",
        "traced pass versus untraced pass, median over passes",
    ),
];

/// Looks up a per-layer metric by name.
pub fn per_layer(name: &str) -> &'static Metric {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Value;

    fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s =
                    |k: &str| m.get(k).and_then(Value::as_str).expect("string field").to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn table(ms: &[Metric]) -> Vec<(String, String, String)> {
        ms.iter().map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned())).collect()
    }

    #[test]
    fn benchmark_json_matches_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = obs::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(names(&v, "end_to_end"), table(END_TO_END));
        assert_eq!(names(&v, "per_layer"), table(PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }
}

//! `perfbench` — the Thresher pipeline benchmark.
//!
//! ```text
//! perfbench --workload <leak-table1|null-scaled|serve-session|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--root <repo dir>] [--serve-bin <thresher-serve path>]
//! ```
//!
//! With `--trace 0` a run measures passes of one workload for `--seconds`
//! seconds and prints its end-to-end metrics. With `--trace 1` untraced
//! and traced passes alternate: traced passes record the benchmark's own
//! spans around each layer call and read the program's `obs` counters, and
//! the run prints the per-layer metrics. Every pass's output is checked;
//! a failed check counts against `failed`. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! A fuller record of the run, host included, is written under
//! `.perfbench/` in the root directory.

mod calib;
mod counters;
mod layers;
mod leak;
mod null;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use obs::json::Value;

use counters::Counts;
use layers::{Metric, END_TO_END, PER_LAYER, WORKLOAD_ONLY};
use trace::Tracer;

/// The workloads, in the order `all` runs them.
pub const WORKLOADS: &[&str] = &["leak-table1", "null-scaled", "serve-session"];

/// Failure messages kept per run (the count is always exact).
const MAX_FAILURE_MESSAGES: usize = 20;

/// Run settings and the span recorder shared by a workload's passes.
pub struct Ctx {
    /// Workload seed (chooses the serve-session edits).
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Traced run?
    pub trace: bool,
    /// Repository root (holds `corpus/`).
    pub root: PathBuf,
    /// Output directory for run records, traces and temporary state.
    pub out_dir: PathBuf,
    /// The `thresher-serve` executable.
    pub serve_bin: PathBuf,
    /// The benchmark's own spans.
    pub tracer: Tracer,
    window_start: Option<Instant>,
}

impl Ctx {
    /// True while the measuring window is open; then the host-speed kernel
    /// is timed for the pass that follows. The first call opens the
    /// window; at least one pass always runs.
    pub fn window_open(&mut self, out: &mut Outcome) -> bool {
        let start = *self.window_start.get_or_insert_with(Instant::now);
        let open = out.pass_s.is_empty() || start.elapsed().as_secs_f64() < self.seconds;
        if open {
            out.calibrate();
        }
        open
    }
}

/// Everything one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    failures: Vec<String>,
    /// Set-up wall times, seconds.
    pub setup_s: Vec<f64>,
    /// Untraced pass wall times, seconds.
    pub pass_s: Vec<f64>,
    /// Host-speed calibration points, at least one before each pass,
    /// seconds.
    calib_s: Vec<f64>,
    /// Traced pass times, seconds.
    pub traced_pass_s: Vec<f64>,
    /// Peak resident set after set-up and the first pass, MiB: of the
    /// benchmark process, or for serve-session of the daemon. Later passes
    /// add allocator fragmentation that varies from run to run.
    pub peak_rss_mb: f64,
    /// Other end-to-end samples (workload-only metrics and per-request
    /// latencies), by name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values, one per traced pass, by metric name.
    layers: BTreeMap<&'static str, Vec<f64>>,
    /// Benchmark self time per traced pass (spans `pass`, `row`, `round`).
    bench_self_ms: Vec<f64>,
}

impl Outcome {
    /// Counts one check; a failed one keeps its message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < MAX_FAILURE_MESSAGES {
                self.failures.push(what());
            }
        }
    }

    /// Adds one host-speed calibration point; returns the seconds it took,
    /// for callers that calibrate inside a timed pass.
    pub fn calibrate(&mut self) -> f64 {
        let t0 = Instant::now();
        self.calib_s.push(calib::kernel_s());
        t0.elapsed().as_secs_f64()
    }

    /// Records one sample of an end-to-end quantity.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Records one traced pass's value of a per-layer metric.
    pub fn layer(&mut self, name: &'static str, v: f64) {
        let name = layers::per_layer(name).name;
        self.layers.entry(name).or_default().push(v);
    }

    /// Records a traced pass: checks that its spans nest and that the
    /// layers' self times add up to its wall time, turns the self times
    /// into per-layer metrics, and records the pass's counters. `splits`
    /// divides a span's self time between a separately timed part (the
    /// named metric) and the witness search (`symex.search_ms`).
    pub fn record_traced_pass(
        &mut self,
        ctx: &Ctx,
        root: usize,
        wall_ns: u64,
        counts: &Counts,
        splits: &[(&str, &'static str, u64)],
    ) {
        let tracer = &ctx.tracer;
        let selfs = tracer.self_times(root);
        let sum: u64 = selfs.values().sum();
        let root_ns = tracer.duration_ns(root);
        let nested = tracer.check_nesting(root);
        self.check(nested && sum == root_ns, || {
            format!("traced pass: layer self times sum to {sum} ns, pass took {root_ns} ns (nested: {nested})")
        });
        self.traced_pass_s.push(wall_ns as f64 / 1e9);
        let mut bench_ns = 0;
        for (&span, &ns) in &selfs {
            let ms = ns as f64 / 1e6;
            match span {
                "pass" | "row" | "round" => bench_ns += ns,
                "tir.parse" => self.layer("tir.parse_ms", ms),
                "pta.solve" => self.layer("pta.solve_ms", ms),
                "pta.modref" => self.layer("pta.modref_ms", ms),
                "client.run" => {}
                other => panic!("span {other} has no layer"),
            }
        }
        self.bench_self_ms.push(bench_ns as f64 / 1e6);
        for &(span, metric, part_ns) in splits {
            let total = selfs.get(span).copied().unwrap_or(0);
            self.layer(metric, part_ns as f64 / 1e6);
            self.layer("symex.search_ms", total.saturating_sub(part_ns) as f64 / 1e6);
        }
        self.record_counts(counts);
    }

    /// Per-layer metrics derived from one pass's `obs` counters.
    pub fn record_counts(&mut self, c: &Counts) {
        let get = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        for (metric, counter) in [
            ("pta.propagations", "pta_propagations"),
            ("pta.nodes", "pta_nodes"),
            ("symex.path_programs", "path_programs"),
            ("symex.cmds_executed", "cmds_executed"),
            ("symex.loop_fixpoints", "loop_fixpoints"),
            ("symex.loop_drop_all_fallbacks", "loop_drop_all_fallbacks"),
            ("symex.subsumed", "subsumed"),
            ("symex.degraded_retries", "degraded_retries"),
            ("symex.edges_refuted", "edges_refuted"),
            ("symex.edges_witnessed", "edges_witnessed"),
            ("symex.edges_aborted", "edges_aborted"),
            ("solver.calls", "solver_calls"),
            ("cache.hits", "cache_hits"),
            ("cache.misses", "cache_misses"),
        ] {
            self.layer(metric, get(counter));
        }
        let (refuted, witnessed, aborted) =
            (get("edges_refuted"), get("edges_witnessed"), get("edges_aborted"));
        let attempts = refuted + witnessed + aborted + get("degraded_retries");
        self.layer("symex.decided_frac", ratio(refuted + witnessed, attempts));
        self.layer("symex.path_programs_per_refuted_edge", ratio(get("path_programs"), refuted));
        self.layer("solver.sat_frac", ratio(get("solver_sat"), get("solver_calls")));
        self.layer("solver.ms", get(counters::SOLVER_NS) / 1e6);
    }

    /// Median of a per-layer metric over the traced passes (0 when the
    /// workload does not exercise the layer).
    fn layer_value(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |v| stats::median(v))
    }

    /// Converts a run's wall-time median to seconds at the reference host
    /// speed (see [`calib`]).
    fn at_reference_speed(&self, wall_s: f64) -> f64 {
        wall_s * calib::REFERENCE_S / stats::median(&self.calib_s)
    }

    fn end_to_end_value(&self, name: &str) -> f64 {
        match name {
            "pass_s" => self.at_reference_speed(stats::median(&self.pass_s)),
            "setup_s" => self.at_reference_speed(stats::median(&self.setup_s)),
            "peak_rss_mb" => self.peak_rss_mb,
            other => panic!("unknown end-to-end metric {other}"),
        }
    }
}

/// Peak resident set (`VmHWM`) of a process, MiB; 0 when unreadable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    vm_hwm_kb(pid).map_or(0.0, |kb| kb / 1024.0)
}

fn vm_hwm_kb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("bad --seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace {other} (expected 0 or 1)")),
                }
            }
            "--root" => root = PathBuf::from(value()?),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (expected one of {WORKLOADS:?} or all)"));
    }
    Ok(Args { workload, seed, seconds, trace, root, serve_bin })
}

/// Host and build identification recorded with every result.
fn host_info(root: &Path) -> Vec<(String, Value)> {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc".to_owned(), Value::uint(nproc as u64)),
        ("rustc".to_owned(), Value::str(run("rustc", &["--version"]))),
        (
            "commit".to_owned(),
            // Only the root's own repository: git would otherwise search
            // the parent directories of a plain source tree.
            Value::str(if root.join(".git").exists() {
                run("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_owned()
            }),
        ),
        ("source_hash".to_owned(), Value::str(format!("{:016x}", source_hash(root)))),
    ]
}

/// FNV-1a/64 over the paths and contents of the program's sources
/// (`crates/`, the workspace manifest and lock file), in sorted order:
/// identifies the measured code where no git metadata is available.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
        for b in rel.bytes().chain(std::fs::read(&f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn run_workload(name: &str, ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match name {
        "leak-table1" => leak::run(ctx, &mut out),
        "null-scaled" => null::run(ctx, &mut out),
        "serve-session" => serve::run(ctx, &mut out)?,
        other => unreachable!("workload {other} was validated"),
    }
    if out.peak_rss_mb <= 0.0 {
        return Err("cannot read VmHWM from /proc".to_owned());
    }
    if ctx.trace {
        let overhead = stats::median(&out.traced_pass_s) / stats::median(&out.pass_s) - 1.0;
        out.layer("trace.overhead_frac", overhead);
    }
    Ok(out)
}

fn metric_json(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".to_owned(), Value::Float(value)),
        ("unit".to_owned(), Value::str(unit)),
    ])
}

/// The metrics the final line carries: the end-to-end set untraced, the
/// per-layer set traced.
fn result_metrics(out: &Outcome, trace: bool) -> Vec<(String, Value)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|m| (m.name.to_owned(), metric_json(out.layer_value(m.name), m.unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), metric_json(out.end_to_end_value(m.name), m.unit)))
            .collect()
    }
}

/// Prints the human-readable report of one workload run.
fn print_report(workload: &str, out: &Outcome, trace: bool) {
    println!("== {workload} ({}) ==", if trace { "traced" } else { "untraced" });
    let line = |m: &Metric, text: String| println!("  {:<38} {text}", m.name);
    if trace {
        for m in PER_LAYER {
            let v = out.layer_value(m.name);
            line(
                m,
                format!(
                    "{v:.6} {:<6} [{}; {} is better] moves: {}",
                    m.unit, m.layer, m.better, m.moves
                ),
            );
        }
        if out.bench_self_ms.is_empty() {
            // serve-session: the layers run in the daemon; their split
            // comes from its cost blocks, not from the benchmark's spans.
            return print_checks(out);
        }
        let traced = stats::median(&out.traced_pass_s) * 1e3;
        println!("  self time per traced pass (median ms; the layers sum to the pass):");
        let mut parts: Vec<(&str, f64)> = [
            "tir.parse_ms",
            "pta.solve_ms",
            "pta.modref_ms",
            "android.find_alarms_ms",
            "null.candidates_ms",
            "symex.search_ms",
        ]
        .iter()
        .map(|&n| (n, out.layer_value(n)))
        .collect();
        parts.push(("perfbench (pass, row and round spans)", stats::median(&out.bench_self_ms)));
        for (n, v) in parts {
            println!(
                "    {n:<40} {v:>12.3} ms {:>6.1}%",
                if traced > 0.0 { 100.0 * v / traced } else { 0.0 }
            );
        }
        println!("    {:<40} {traced:>12.3} ms (n={})", "traced pass", out.traced_pass_s.len());
    } else {
        for m in END_TO_END {
            let text = match m.name {
                "peak_rss_mb" => format!("{:.3} {}", out.peak_rss_mb, m.unit),
                name => {
                    let wall = if name == "pass_s" { &out.pass_s } else { &out.setup_s };
                    format!(
                        "{:.6} {} at reference speed; wall {}",
                        out.end_to_end_value(name),
                        m.unit,
                        stats::summarize(wall).render(m.unit)
                    )
                }
            };
            line(m, text);
        }
        println!("  {:<38} {}", "host-speed kernel", stats::summarize(&out.calib_s).render("s"));
        for (w, m) in WORKLOAD_ONLY {
            if *w == workload {
                line(
                    m,
                    stats::summarize(out.samples.get(m.name).map_or(&[][..], |v| v)).render(m.unit),
                );
            }
        }
        for (name, v) in &out.samples {
            if !WORKLOAD_ONLY.iter().any(|(_, m)| m.name == *name) {
                let unit = if name.ends_with("_ms") { "ms" } else { "ratio" };
                println!("  {name:<38} {}", stats::summarize(v).render(unit));
            }
        }
    }
    print_checks(out);
}

/// Prints `error_rate` and the failed checks.
fn print_checks(out: &Outcome) {
    println!(
        "  {:<38} {:.6} ({} failed of {} checks)",
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
}

/// Writes the run record (host, every summary, failures) and, for traced
/// runs, the span list.
fn write_record(
    ctx: &Ctx,
    workload: &str,
    out: &Outcome,
    host: &[(String, Value)],
) -> Result<(), String> {
    let stem = format!("{workload}-seed{}-trace{}", ctx.seed, u8::from(ctx.trace));
    let summary = |v: &[f64]| {
        let s = stats::summarize(v);
        let mut fields = vec![
            ("median".to_owned(), Value::Float(s.median)),
            ("count".to_owned(), Value::uint(s.count as u64)),
        ];
        if let Some((p, t)) = s.tail {
            fields.push((format!("p{p}"), Value::Float(t)));
        }
        fields
            .push(("samples".to_owned(), Value::Arr(v.iter().map(|&x| Value::Float(x)).collect())));
        Value::Obj(fields)
    };
    let mut fields = vec![
        ("workload".to_owned(), Value::str(workload)),
        ("seed".to_owned(), Value::uint(ctx.seed)),
        ("seconds".to_owned(), Value::Float(ctx.seconds)),
        ("trace".to_owned(), Value::Bool(ctx.trace)),
        ("host".to_owned(), Value::Obj(host.to_vec())),
        ("attempted".to_owned(), Value::uint(out.attempted)),
        ("failed".to_owned(), Value::uint(out.failed)),
        ("failures".to_owned(), Value::Arr(out.failures.iter().map(Value::str).collect())),
        ("pass_s".to_owned(), Value::Float(out.end_to_end_value("pass_s"))),
        ("setup_s".to_owned(), Value::Float(out.end_to_end_value("setup_s"))),
        ("pass_wall_s".to_owned(), summary(&out.pass_s)),
        ("setup_wall_s".to_owned(), summary(&out.setup_s)),
        ("kernel_s".to_owned(), summary(&out.calib_s)),
        ("peak_rss_mb".to_owned(), Value::Float(out.peak_rss_mb)),
    ];
    fields.extend(out.samples.iter().map(|(k, v)| ((*k).to_owned(), summary(v))));
    if ctx.trace {
        fields.push(("traced_pass_s".to_owned(), summary(&out.traced_pass_s)));
        fields.push(("per_layer".to_owned(), Value::Obj(result_metrics(out, true))));
        let path = ctx.out_dir.join(format!("trace-{stem}.json"));
        std::fs::write(&path, ctx.tracer.chrome_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let path = ctx.out_dir.join(format!("result-{stem}.json"));
    std::fs::write(&path, Value::Obj(fields).to_json())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(64);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Args) -> Result<(), String> {
    let root =
        args.root.canonicalize().map_err(|e| format!("bad --root {}: {e}", args.root.display()))?;
    if !root.join("corpus").is_dir() || !root.join("crates").is_dir() {
        return Err(format!(
            "{} is not the repository root (no corpus/ or crates/)",
            root.display()
        ));
    }
    let out_dir = root.join(".perfbench");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let serve_bin =
        args.serve_bin.unwrap_or_else(|| root.join(".bench_build/release/thresher-serve"));
    let host = host_info(&root);
    println!("host: {}", Value::Obj(host.clone()).to_json());

    let names: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    for name in &names {
        let mut ctx = Ctx {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            root: root.clone(),
            out_dir: out_dir.clone(),
            serve_bin: serve_bin.clone(),
            tracer: Tracer::new(Instant::now()),
            window_start: None,
        };
        let out = run_workload(name, &mut ctx)?;
        print_report(name, &out, args.trace);
        write_record(&ctx, name, &out, &host)?;
        attempted += out.attempted;
        failed += out.failed;
        let prefix = if names.len() > 1 { format!("{name}.") } else { String::new() };
        metrics.extend(
            result_metrics(&out, args.trace).into_iter().map(|(k, v)| (format!("{prefix}{k}"), v)),
        );
    }
    let result = Value::Obj(vec![
        ("correct".to_owned(), Value::Bool(failed == 0)),
        ("attempted".to_owned(), Value::uint(attempted)),
        ("failed".to_owned(), Value::uint(failed)),
        ("metrics".to_owned(), Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

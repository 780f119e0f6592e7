//! Reading the counters `obs` already keeps: in process through an
//! installed [`obs::MemRecorder`], and from the daemon through its
//! Prometheus exposition.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use obs::{Counter, Hist, MemRecorder, RingCapacity};

/// Counter values keyed by their `obs` name (`pta_propagations`), plus
/// `solver_ns`, the summed `solver_call_ns` histogram.
pub type Counts = BTreeMap<String, u64>;

/// The solver-time key of [`Counts`].
pub const SOLVER_NS: &str = "solver_ns";

fn recorder() -> &'static MemRecorder {
    static REC: OnceLock<&'static MemRecorder> = OnceLock::new();
    // Coarse with an empty ring: the recorder keeps counters and
    // histograms only; spans are the benchmark's own.
    REC.get_or_init(|| Box::leak(Box::new(MemRecorder::coarse(RingCapacity(0)))))
}

/// Zeroes the recorder and installs it for the code that follows.
pub fn start() {
    let rec = recorder();
    rec.reset();
    obs::install(rec);
}

/// Uninstalls the recorder and returns what it counted since [`start`].
pub fn stop() -> Counts {
    obs::uninstall();
    let rec = recorder();
    let mut counts: Counts =
        Counter::ALL.iter().map(|&c| (c.name().to_owned(), rec.counter(c))).collect();
    counts.insert(SOLVER_NS.to_owned(), rec.histogram(Hist::SolverNanos).sum);
    counts
}

/// Counter totals from a `thresher_`-prefixed Prometheus exposition.
pub fn from_exposition(text: &str) -> Result<Counts, String> {
    let samples = obs::prom::parse(text).map_err(|e| format!("bad exposition: {e}"))?;
    let mut counts = Counts::new();
    for s in samples {
        if let Some(name) = s.name.strip_prefix("thresher_").and_then(|n| n.strip_suffix("_total"))
        {
            if Counter::from_name(name).is_some() {
                counts.insert(name.to_owned(), s.value as u64);
            }
        }
        if s.name == format!("thresher_{}_sum", Hist::SolverNanos.name()) {
            counts.insert(SOLVER_NS.to_owned(), s.value as u64);
        }
    }
    Ok(counts)
}

/// `after − before`, key by key.
pub fn diff(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(k, &v)| (k.clone(), v.saturating_sub(before.get(k).copied().unwrap_or(0))))
        .collect()
}

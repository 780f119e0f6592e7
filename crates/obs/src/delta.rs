//! Captured metric deltas for deferred, deterministic accounting.
//!
//! The parallel refutation scheduler computes edge decisions speculatively
//! on worker threads, but only *commits* them — in the canonical sequential
//! order — on the coordinator. To keep report totals byte-identical across
//! thread counts, the metrics a speculative computation emits must not hit
//! the global [`Recorder`](crate::Recorder) immediately: [`capture`] runs a
//! closure with a thread-local buffer installed, collecting every
//! [`add`](crate::add)/[`observe`](crate::observe) into a [`MetricsDelta`],
//! and [`MetricsDelta::replay`] applies the batch to the global recorder at
//! commit time. Trace events (spans, instants) are *not* buffered — they
//! pass straight to the ring and are excluded from determinism guarantees.
//!
//! A delta aggregates each histogram exactly as the registry does — count,
//! saturating sum, max and log₂ bucket counts — so its size does not grow
//! with the number of observations, and replaying it leaves the registry
//! in the same state as the original observations would have.

use std::cell::RefCell;

use crate::metrics::{bucket_index, bucket_lower_bound, NUM_BUCKETS};
use crate::{Counter, Hist, HistSnapshot};

/// One histogram's aggregate: exactly the state a registry keeps.
#[derive(Clone, Debug, PartialEq, Eq)]
struct HistAgg {
    count: u64,
    sum: u64,
    max: u64,
    buckets: [u64; NUM_BUCKETS],
}

impl Default for HistAgg {
    fn default() -> Self {
        HistAgg { count: 0, sum: 0, max: 0, buckets: [0; NUM_BUCKETS] }
    }
}

impl HistAgg {
    fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    fn merge(&mut self, snap: &HistSnapshot) {
        // Saturating: merged aggregates may come from a decision store on
        // disk, and an absurd count must not panic the replay.
        for &(lb, n) in &snap.buckets {
            let b = &mut self.buckets[bucket_index(lb)];
            *b = b.saturating_add(n);
        }
        self.count = self.count.saturating_add(snap.count);
        self.sum = self.sum.saturating_add(snap.sum);
        self.max = self.max.max(snap.max);
    }

    fn snapshot(&self) -> HistSnapshot {
        let buckets = (0..NUM_BUCKETS)
            .filter(|&i| self.buckets[i] > 0)
            .map(|i| (bucket_lower_bound(i), self.buckets[i]))
            .collect();
        HistSnapshot { count: self.count, sum: self.sum, max: self.max, buckets }
    }
}

/// A batch of counter increments and histogram aggregates, captured on one
/// thread and replayable later. Replaying the delta produces exactly the
/// same registry state as recording the original calls directly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsDelta {
    counters: [u64; Counter::COUNT],
    hists: [HistAgg; Hist::COUNT],
}

impl Default for MetricsDelta {
    fn default() -> Self {
        MetricsDelta {
            counters: [0; Counter::COUNT],
            hists: std::array::from_fn(|_| HistAgg::default()),
        }
    }
}

impl MetricsDelta {
    /// True when nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.hists.iter().all(|h| h.count == 0) && self.counters.iter().all(|&n| n == 0)
    }

    /// Captured total for counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Captured aggregate of histogram `h`.
    pub fn histogram(&self, h: Hist) -> HistSnapshot {
        self.hists[h.index()].snapshot()
    }

    /// Rebuilds a delta from previously-serialized parts: per-counter
    /// totals as `(counter, n)` pairs plus per-histogram aggregates.
    /// Replaying the result produces the same registry state as replaying
    /// the original — this is the deserialization counterpart of
    /// [`Self::counter`]/[`Self::histogram`] used by the persistent
    /// refutation cache.
    pub fn from_parts(
        counters: impl IntoIterator<Item = (Counter, u64)>,
        hists: impl IntoIterator<Item = (Hist, HistSnapshot)>,
    ) -> Self {
        let mut d = MetricsDelta::default();
        for (c, n) in counters {
            d.add(c, n);
        }
        for (h, snap) in hists {
            d.merge_hist(h, &snap);
        }
        d
    }

    fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] = self.counters[c.index()].saturating_add(n);
    }

    fn observe(&mut self, h: Hist, v: u64) {
        self.hists[h.index()].observe(v);
    }

    fn merge_hist(&mut self, h: Hist, snap: &HistSnapshot) {
        self.hists[h.index()].merge(snap);
    }

    /// The captured histograms that saw at least one observation.
    fn observed(&self) -> impl Iterator<Item = (Hist, &HistAgg)> {
        Hist::ALL.iter().map(|&h| (h, &self.hists[h.index()])).filter(|(_, a)| a.count > 0)
    }

    /// Applies the batch through [`add`](crate::add) and
    /// [`merge_hist`](crate::merge_hist) (a no-op when recording is
    /// disabled). A [`capture`] active on the calling thread therefore
    /// buffers the replayed metrics like any other emission — exactly once
    /// — so a higher-level consumer (e.g. a per-request report in
    /// `thresher-serve`) sees everything the scheduler commits beneath it.
    /// With no capture active, the batch goes straight to the installed
    /// recorder as before.
    pub fn replay(&self) {
        if !crate::enabled() {
            return;
        }
        for (i, &n) in self.counters.iter().enumerate() {
            if n > 0 {
                crate::add(Counter::ALL[i], n);
            }
        }
        for (h, agg) in self.observed() {
            crate::merge_hist(h, &agg.snapshot());
        }
    }

    /// Applies the batch to an explicit registry, independent of the
    /// global recorder or any capture — the rendering step for building a
    /// standalone [`RunReport`](crate::RunReport) out of captured deltas.
    pub fn replay_into(&self, registry: &crate::Registry) {
        for (i, &n) in self.counters.iter().enumerate() {
            if n > 0 {
                registry.add(Counter::ALL[i], n);
            }
        }
        for (h, agg) in self.observed() {
            registry.merge_hist(h, &agg.snapshot());
        }
    }
}

thread_local! {
    static CAPTURE: RefCell<Option<Box<MetricsDelta>>> = const { RefCell::new(None) };
}

/// Routes `add` into the active capture buffer, if any. Returns `true`
/// when the value was buffered (the caller must then skip the recorder).
#[inline]
pub(crate) fn buffered_add(c: Counter, n: u64) -> bool {
    CAPTURE.with(|cell| match cell.borrow_mut().as_mut() {
        Some(d) => {
            d.add(c, n);
            true
        }
        None => false,
    })
}

/// Routes `observe` into the active capture buffer, if any.
#[inline]
pub(crate) fn buffered_observe(h: Hist, v: u64) -> bool {
    CAPTURE.with(|cell| match cell.borrow_mut().as_mut() {
        Some(d) => {
            d.observe(h, v);
            true
        }
        None => false,
    })
}

/// Routes a histogram merge into the active capture buffer, if any.
pub(crate) fn buffered_merge(h: Hist, snap: &HistSnapshot) -> bool {
    CAPTURE.with(|cell| match cell.borrow_mut().as_mut() {
        Some(d) => {
            d.merge_hist(h, snap);
            true
        }
        None => false,
    })
}

/// Runs `f` with metric capture active on this thread: every counter add
/// and histogram observation `f` emits lands in the returned
/// [`MetricsDelta`] instead of the global recorder. Captures nest (the
/// innermost buffer wins). When recording is disabled, `f` runs without any
/// buffering and the delta is empty — the delta only matters for what the
/// recorder would have seen.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, MetricsDelta) {
    if !crate::enabled() {
        return (f(), MetricsDelta::default());
    }
    let prev = CAPTURE.with(|c| c.borrow_mut().replace(Box::default()));
    // Restore the previous buffer even if `f` unwinds, or every later
    // metric on this thread would be swallowed by a leaked buffer.
    struct Restore(Option<Box<MetricsDelta>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CAPTURE.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let restore = Restore(prev);
    let r = f();
    let delta = CAPTURE.with(|c| c.borrow_mut().take()).map(|b| *b).unwrap_or_default();
    drop(restore);
    (r, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemRecorder, RingCapacity};

    #[test]
    fn capture_buffers_and_replay_applies() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        rec.reset();

        let ((), delta) = capture(|| {
            crate::add(Counter::EdgesRefuted, 2);
            crate::observe(Hist::HeapCells, 5);
        });
        // Nothing reached the recorder yet.
        assert_eq!(rec.counter(Counter::EdgesRefuted), 0);
        assert_eq!(rec.histogram(Hist::HeapCells).count, 0);
        assert_eq!(delta.counter(Counter::EdgesRefuted), 2);
        assert_eq!(delta.histogram(Hist::HeapCells).count, 1);
        assert_eq!(delta.histogram(Hist::HeapCells).sum, 5);
        assert!(!delta.is_empty());

        delta.replay();
        assert_eq!(rec.counter(Counter::EdgesRefuted), 2);
        assert_eq!(rec.histogram(Hist::HeapCells).count, 1);
        assert_eq!(rec.histogram(Hist::HeapCells).sum, 5);
        crate::uninstall();
    }

    #[test]
    fn captures_nest_and_restore() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        rec.reset();

        let ((), outer) = capture(|| {
            crate::add(Counter::SolverCalls, 1);
            let ((), inner) = capture(|| crate::add(Counter::SolverCalls, 10));
            assert_eq!(inner.counter(Counter::SolverCalls), 10);
            crate::add(Counter::SolverCalls, 2);
        });
        assert_eq!(outer.counter(Counter::SolverCalls), 3);
        assert_eq!(rec.counter(Counter::SolverCalls), 0);

        // After capture ends, metrics flow to the recorder again.
        crate::add(Counter::SolverCalls, 7);
        assert_eq!(rec.counter(Counter::SolverCalls), 7);
        crate::uninstall();
    }

    #[test]
    fn replay_respects_active_capture() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        rec.reset();

        let ((), inner) = capture(|| {
            crate::add(Counter::EdgesRefuted, 4);
            crate::observe(Hist::HeapCells, 9);
        });
        // Replaying inside an outer capture buffers instead of committing,
        // so a per-request capture sees scheduler-committed metrics.
        let ((), outer) = capture(|| inner.replay());
        assert_eq!(rec.counter(Counter::EdgesRefuted), 0);
        assert_eq!(outer.counter(Counter::EdgesRefuted), 4);
        assert_eq!(outer.histogram(Hist::HeapCells), inner.histogram(Hist::HeapCells));

        outer.replay();
        assert_eq!(rec.counter(Counter::EdgesRefuted), 4);
        crate::uninstall();
    }

    #[test]
    fn replay_into_targets_explicit_registry() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        rec.reset();
        let ((), delta) = capture(|| {
            crate::add(Counter::SolverCalls, 3);
            crate::observe(Hist::HeapCells, 2);
        });
        let reg = crate::Registry::new();
        delta.replay_into(&reg);
        assert_eq!(reg.counter(Counter::SolverCalls), 3);
        assert_eq!(reg.histogram(Hist::HeapCells).count, 1);
        // The global recorder stays untouched.
        assert_eq!(rec.counter(Counter::SolverCalls), 0);
        crate::uninstall();
    }

    #[test]
    fn aggregated_replay_matches_direct_observation() {
        let _serial = crate::test_lock();
        let rec = MemRecorder::install_static(RingCapacity::default());
        let values = [0, 1, 2, 3, 7, 8, 1 << 40, u64::MAX, u64::MAX, 5];
        rec.reset();
        for &v in &values {
            crate::observe(Hist::SolverNanos, v);
        }
        let direct = rec.histogram(Hist::SolverNanos);

        rec.reset();
        let ((), delta) = capture(|| {
            for &v in &values {
                crate::observe(Hist::SolverNanos, v);
            }
        });
        // Saturating sum, max and every bucket survive aggregation.
        assert_eq!(delta.histogram(Hist::SolverNanos), direct);
        // A serialization round trip through the parts is lossless too.
        let rebuilt = MetricsDelta::from_parts(
            [(Counter::SolverCalls, 3)],
            [(Hist::SolverNanos, delta.histogram(Hist::SolverNanos))],
        );
        rebuilt.replay();
        assert_eq!(rec.histogram(Hist::SolverNanos), direct);
        let reg = crate::Registry::new();
        rebuilt.replay_into(&reg);
        assert_eq!(reg.histogram(Hist::SolverNanos), direct);
        crate::uninstall();
    }

    #[test]
    fn default_recorder_merge_keeps_count_buckets_and_max() {
        /// A recorder that only implements `observe`, so `merge_hist`
        /// takes the trait's default.
        struct ObserveOnly(crate::Registry);
        impl crate::Recorder for ObserveOnly {
            fn add(&self, _: Counter, _: u64) {}
            fn observe(&self, h: Hist, v: u64) {
                self.0.observe(h, v);
            }
            fn event(&self, _: crate::TraceEvent) {}
        }
        let direct = crate::Registry::new();
        for v in [0, 3, 5, 6, 100, 1 << 20] {
            direct.observe(Hist::HeapCells, v);
        }
        let snap = direct.histogram(Hist::HeapCells);
        let rec = ObserveOnly(crate::Registry::new());
        crate::Recorder::merge_hist(&rec, Hist::HeapCells, &snap);
        let merged = rec.0.histogram(Hist::HeapCells);
        assert_eq!(
            (merged.count, merged.max, &merged.buckets),
            (snap.count, snap.max, &snap.buckets)
        );
        assert!(merged.sum <= snap.sum);
    }

    #[test]
    fn capture_disabled_is_passthrough() {
        let _serial = crate::test_lock();
        crate::uninstall();
        let (v, delta) = capture(|| {
            crate::add(Counter::SolverCalls, 1);
            42
        });
        assert_eq!(v, 42);
        assert!(delta.is_empty());
    }
}

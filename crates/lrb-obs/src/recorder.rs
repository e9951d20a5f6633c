//! The [`Recorder`] trait, its RAII [`Span`] guard, and the no-op and
//! atomic implementations.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

use crate::snapshot::{
    percentile_from_buckets, CounterSnapshot, HistogramSnapshot, PhaseSnapshot, Snapshot,
    SCHEMA_VERSION,
};

/// Number of log2 histogram buckets: bucket 0 holds value 0, bucket `i >= 1`
/// holds values in `[2^(i-1), 2^i)`, up to bucket 64 for `[2^63, u64::MAX]`.
pub(crate) const BUCKETS: usize = 65;

pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Sink for instrumentation events: counters, histogram observations,
/// RAII spans, and instant markers.
///
/// Algorithms take `&R` where `R: Recorder`; passing [`NoopRecorder`]
/// monomorphizes every call to an empty inline function, so disabled
/// instrumentation costs nothing. [`AtomicRecorder`] folds every span into
/// per-name phase totals; a [`ThreadTracer`](crate::ThreadTracer) lane keeps
/// each span as its own timeline event and drops counters and histograms.
pub trait Recorder {
    /// `false` for [`NoopRecorder`]; lets call sites skip work that only
    /// exists to feed the recorder (e.g. reading the clock).
    const ENABLED: bool;

    /// `true` for recorders that keep every span as its own timeline event.
    /// Per-item hot loops (the batch engine's solve spans and the solver
    /// phases nested in them) report only into timeline recorders, so an
    /// aggregate recorder shared by all workers pays no registry lookup per
    /// item.
    const TIMELINE: bool = false;

    /// Add `by` to the named monotonic counter.
    fn incr(&self, counter: &'static str, by: u64);

    /// Record one observation into the named log2 histogram.
    fn observe(&self, histogram: &'static str, value: u64);

    /// Open a span with payload `v`; `sched` marks scheduling-lane events
    /// (claim/steal/queue-wait), whose count depends on thread
    /// interleaving. Returns the start instant when the recorder times the
    /// span itself; [`span_with`](Recorder::span_with) hands it back to
    /// [`exit`](Recorder::exit). Prefer the RAII wrappers.
    fn enter(&self, name: &'static str, v: u64, sched: bool) -> Option<Instant>;

    /// Close the innermost open span, `name`, opened with `start`.
    fn exit(&self, name: &'static str, start: Option<Instant>);

    /// Emit a point-in-time marker.
    fn instant(&self, name: &'static str, v: u64, sched: bool);

    /// RAII span: enters now, exits when the returned guard drops.
    fn span_with(&self, name: &'static str, v: u64, sched: bool) -> Span<'_, Self>
    where
        Self: Sized,
    {
        let start = if Self::ENABLED {
            self.enter(name, v, sched)
        } else {
            None
        };
        Span {
            recorder: self,
            name,
            start,
        }
    }

    /// RAII span with no payload: times one `phase` of an algorithm.
    fn time(&self, phase: &'static str) -> Span<'_, Self>
    where
        Self: Sized,
    {
        self.span_with(phase, 0, false)
    }
}

/// RAII guard returned by [`Recorder::span_with`] and [`Recorder::time`].
pub struct Span<'a, R: Recorder> {
    recorder: &'a R,
    name: &'static str,
    start: Option<Instant>,
}

impl<R: Recorder> Drop for Span<'_, R> {
    fn drop(&mut self) {
        if R::ENABLED {
            self.recorder.exit(self.name, self.start);
        }
    }
}

/// A shared reference records into its referent, so one `&AtomicRecorder`
/// can be copied into every worker lane of a parallel run.
impl<R: Recorder> Recorder for &R {
    const ENABLED: bool = R::ENABLED;
    const TIMELINE: bool = R::TIMELINE;

    #[inline(always)]
    fn incr(&self, counter: &'static str, by: u64) {
        (**self).incr(counter, by);
    }

    #[inline(always)]
    fn observe(&self, histogram: &'static str, value: u64) {
        (**self).observe(histogram, value);
    }

    #[inline(always)]
    fn enter(&self, name: &'static str, v: u64, sched: bool) -> Option<Instant> {
        (**self).enter(name, v, sched)
    }

    #[inline(always)]
    fn exit(&self, name: &'static str, start: Option<Instant>) {
        (**self).exit(name, start);
    }

    #[inline(always)]
    fn instant(&self, name: &'static str, v: u64, sched: bool) {
        (**self).instant(name, v, sched);
    }
}

/// Recorder that records nothing. Zero-sized; every method is an empty
/// `#[inline(always)]` body, so instrumented code paths compile down to the
/// un-instrumented equivalent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;

    #[inline(always)]
    fn incr(&self, _counter: &'static str, _by: u64) {}

    #[inline(always)]
    fn observe(&self, _histogram: &'static str, _value: u64) {}

    #[inline(always)]
    fn enter(&self, _name: &'static str, _v: u64, _sched: bool) -> Option<Instant> {
        None
    }

    #[inline(always)]
    fn exit(&self, _name: &'static str, _start: Option<Instant>) {}

    #[inline(always)]
    fn instant(&self, _name: &'static str, _v: u64, _sched: bool) {}
}

struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    fn new() -> Self {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.sum, value);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

/// `fetch_add` that pins at `u64::MAX` instead of wrapping — `fetch_add`
/// wraps silently even with overflow-checks on, and a histogram `sum` fed
/// `u64::MAX`-scale observations must saturate, not lie.
fn saturating_fetch_add(cell: &AtomicU64, value: u64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = current.saturating_add(value);
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

#[derive(Default)]
struct PhaseStat {
    calls: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

/// Thread-safe recorder backed by atomics.
///
/// Counter/histogram/phase registries are `RwLock`-guarded maps consulted
/// once per name lookup; the hot-path updates themselves are relaxed atomic
/// operations, so an `AtomicRecorder` can be shared freely across the
/// parallel harness's worker threads.
#[derive(Default)]
pub struct AtomicRecorder {
    counters: RwLock<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<BTreeMap<String, Arc<AtomicHistogram>>>,
    phases: RwLock<BTreeMap<String, Arc<PhaseStat>>>,
}

fn handle<T>(
    map: &RwLock<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    // A poisoned registry lock only means some other thread panicked
    // mid-insert; the map itself is still structurally sound, so recover
    // the guard instead of cascading the panic into solver callers.
    if let Some(h) = map.read().unwrap_or_else(PoisonError::into_inner).get(name) {
        return Arc::clone(h);
    }
    Arc::clone(
        map.write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

impl AtomicRecorder {
    /// Fresh recorder with no registered metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze the current state into a serializable [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .expect("obs registry poisoned")
            .iter()
            .map(|(name, v)| CounterSnapshot {
                name: name.clone(),
                value: v.load(Ordering::Relaxed),
            })
            .collect();
        let histograms = self
            .histograms
            .read()
            .expect("obs registry poisoned")
            .iter()
            .map(|(name, h)| {
                let buckets: Vec<u64> = h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                let count = h.count.load(Ordering::Relaxed);
                let min = if count == 0 {
                    0
                } else {
                    h.min.load(Ordering::Relaxed)
                };
                let max = h.max.load(Ordering::Relaxed);
                let mut trimmed = buckets.clone();
                while trimmed.last() == Some(&0) {
                    trimmed.pop();
                }
                HistogramSnapshot {
                    name: name.clone(),
                    count,
                    sum: h.sum.load(Ordering::Relaxed),
                    min,
                    max,
                    p50: percentile_from_buckets(&buckets, count, 0.50).clamp(min, max.max(min)),
                    p90: percentile_from_buckets(&buckets, count, 0.90).clamp(min, max.max(min)),
                    p99: percentile_from_buckets(&buckets, count, 0.99).clamp(min, max.max(min)),
                    buckets: trimmed,
                }
            })
            .collect();
        let phases = self
            .phases
            .read()
            .expect("obs registry poisoned")
            .iter()
            .map(|(name, p)| {
                let calls = p.calls.load(Ordering::Relaxed);
                let total_nanos = p.total_nanos.load(Ordering::Relaxed);
                PhaseSnapshot {
                    name: name.clone(),
                    calls,
                    total_nanos,
                    max_nanos: p.max_nanos.load(Ordering::Relaxed),
                    mean_nanos: total_nanos.checked_div(calls).unwrap_or(0),
                }
            })
            .collect();
        Snapshot {
            schema_version: SCHEMA_VERSION,
            counters,
            histograms,
            phases,
        }
    }

    /// Fold another snapshot's totals into this recorder — used to aggregate
    /// per-worker or per-run recorders into one report.
    pub fn merge(&self, other: &Snapshot) {
        for c in &other.counters {
            handle(&self.counters, &c.name, || AtomicU64::new(0))
                .fetch_add(c.value, Ordering::Relaxed);
        }
        for h in &other.histograms {
            let hist = handle(&self.histograms, &h.name, AtomicHistogram::new);
            for (i, &n) in h.buckets.iter().enumerate().take(BUCKETS) {
                hist.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
            hist.count.fetch_add(h.count, Ordering::Relaxed);
            saturating_fetch_add(&hist.sum, h.sum);
            if h.count > 0 {
                hist.min.fetch_min(h.min, Ordering::Relaxed);
                hist.max.fetch_max(h.max, Ordering::Relaxed);
            }
        }
        for p in &other.phases {
            let stat = handle(&self.phases, &p.name, PhaseStat::default);
            stat.calls.fetch_add(p.calls, Ordering::Relaxed);
            stat.total_nanos.fetch_add(p.total_nanos, Ordering::Relaxed);
            stat.max_nanos.fetch_max(p.max_nanos, Ordering::Relaxed);
        }
    }
}

/// Spans fold into per-name phase totals (calls, total and max
/// nanoseconds); scheduling-lane spans and instants are dropped, since
/// their counts depend on thread interleaving rather than on the work.
impl Recorder for AtomicRecorder {
    const ENABLED: bool = true;

    fn incr(&self, counter: &'static str, by: u64) {
        handle(&self.counters, counter, || AtomicU64::new(0)).fetch_add(by, Ordering::Relaxed);
    }

    fn observe(&self, histogram: &'static str, value: u64) {
        handle(&self.histograms, histogram, AtomicHistogram::new).observe(value);
    }

    fn enter(&self, _name: &'static str, _v: u64, sched: bool) -> Option<Instant> {
        // lint: allow(no-nondeterminism, phase timing is telemetry; durations never feed solve results)
        (!sched).then(Instant::now)
    }

    fn exit(&self, name: &'static str, start: Option<Instant>) {
        let Some(start) = start else { return };
        // Clamp to >= 1ns so a recorded phase is always distinguishable
        // from one that never ran, even under coarse clocks.
        let nanos = (start.elapsed().as_nanos() as u64).max(1);
        let stat = handle(&self.phases, name, PhaseStat::default);
        stat.calls.fetch_add(1, Ordering::Relaxed);
        stat.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        stat.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    fn instant(&self, _name: &'static str, _v: u64, _sched: bool) {}
}

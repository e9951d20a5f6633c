//! Zero-overhead instrumentation for the load-rebalancing workspace.
//!
//! One trait, [`Recorder`], carries every kind of instrumentation:
//! counters, log2 histogram observations, RAII spans ([`Recorder::time`]
//! for a payload-free phase, [`Recorder::span_with`] for a span with a
//! payload and a scheduling-lane flag), and instant markers. Algorithms
//! take a generic `&R: Recorder` parameter and one guard type, [`Span`],
//! closes every span. Three implementations decide what the events
//! become:
//!
//! - [`NoopRecorder`]: a zero-sized type whose methods are empty and whose
//!   `ENABLED` flag is `false`, so monomorphized call sites compile to
//!   nothing. Un-instrumented public APIs delegate through it, keeping the
//!   disabled path free (see `benches/obs_overhead.rs` in `lrb-bench`).
//! - [`AtomicRecorder`]: thread-safe totals backed by atomics, suitable
//!   for sharing across the parallel harness. A closed span adds one call
//!   and its wall time to the phase of the same name; scheduling-lane
//!   spans and instants are dropped.
//! - [`ThreadTracer`]: one single-owner lane of a [`TraceCollector`]. Each
//!   span or instant becomes a [`SpanEvent`] on a shared timebase;
//!   counters and histograms are dropped.
//!
//! A recorder can be frozen into a [`Snapshot`] — a versioned, serializable
//! view with per-counter totals, histogram percentiles (p50/p90/p99), and
//! per-phase wall-clock totals — which the CLI exports as JSON via
//! `--metrics` and renders as a table with `--verbose`. A collector drains
//! into a [`Trace`], which the CLI exports as Chrome trace-event JSON.

pub mod names;
mod recorder;
mod snapshot;
pub mod trace;

pub use recorder::{AtomicRecorder, NoopRecorder, Recorder, Span};
pub use snapshot::{CounterSnapshot, HistogramSnapshot, PhaseSnapshot, Snapshot, SCHEMA_VERSION};
pub use trace::{SpanEvent, SpanKind, ThreadTracer, Trace, TraceCollector, TRACE_SCHEMA_VERSION};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_zero_sized_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
        const { assert!(!<NoopRecorder as Recorder>::ENABLED) };
        // Exercise every method; all must be no-ops that don't panic.
        let r = NoopRecorder;
        r.incr("c", 3);
        r.observe("h", 42);
        {
            let _t = r.time("p");
            let _s = r.span_with("s", 1, false);
        }
        r.instant("i", 2, true);
    }

    #[test]
    fn atomic_recorder_folds_spans_into_phases_and_drops_sched_lanes() {
        let r = AtomicRecorder::new();
        {
            let _w = r.span_with("worker", 0, true);
            for i in 0..3u64 {
                let _s = r.span_with("solve", i, false);
            }
            r.instant("steal", 1, true);
        }
        let snap = r.snapshot();
        assert_eq!(snap.phase("solve").unwrap().calls, 3);
        assert!(snap.phase("solve").unwrap().total_nanos >= 3);
        // Scheduling-lane spans and instants never become phases.
        assert!(snap.phase("worker").is_none());
        assert!(snap.phase("steal").is_none());
        assert_eq!(snap.phases.len(), 1);
    }

    #[test]
    fn shared_references_record_into_their_referent() {
        fn emit<R: Recorder>(rec: R) {
            rec.incr("n", 1);
            let _t = rec.time("p");
        }
        let r = AtomicRecorder::new();
        emit(&r);
        emit::<&&AtomicRecorder>(&&r);
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), Some(2));
        assert_eq!(snap.phase("p").unwrap().calls, 2);
        const { assert!(<&AtomicRecorder as Recorder>::ENABLED) };
        const { assert!(!<&NoopRecorder as Recorder>::ENABLED) };
        const { assert!(<&ThreadTracer as Recorder>::TIMELINE) };
        const { assert!(!<&AtomicRecorder as Recorder>::TIMELINE) };
    }

    #[test]
    fn atomic_recorder_counts_and_times() {
        let r = AtomicRecorder::new();
        r.incr("moves", 2);
        r.incr("moves", 3);
        r.observe("size", 1);
        r.observe("size", 100);
        {
            let _t = r.time("phase");
        }
        let snap = r.snapshot();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert_eq!(snap.counter("moves"), Some(5));
        let h = snap.histogram("size").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 101);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 100);
        let p = snap.phase("phase").unwrap();
        assert_eq!(p.calls, 1);
    }

    #[test]
    fn histogram_percentiles_are_bucket_upper_bounds() {
        let r = AtomicRecorder::new();
        // 100 observations of 1, so every percentile lands in bucket [1,2).
        for _ in 0..100 {
            r.observe("v", 1);
        }
        let h = r.snapshot().histogram("v").unwrap().clone();
        assert_eq!(h.p50, 1);
        assert_eq!(h.p90, 1);
        assert_eq!(h.p99, 1);
        // Skewed distribution: 90 small values, 10 large ones.
        let r = AtomicRecorder::new();
        for _ in 0..90 {
            r.observe("w", 2);
        }
        for _ in 0..10 {
            r.observe("w", 1000);
        }
        let h = r.snapshot().histogram("w").unwrap().clone();
        assert!(h.p50 <= 3, "p50 {} should sit in the small bucket", h.p50);
        assert!(h.p99 >= 512, "p99 {} should sit in the large bucket", h.p99);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = AtomicRecorder::new();
        r.incr("a", 7);
        r.observe("b", 9);
        {
            let _t = r.time("c");
        }
        let snap = r.snapshot();
        let json = snap.to_json().unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.schema_version, snap.schema_version);
        assert_eq!(back.counter("a"), Some(7));
        assert_eq!(back.histogram("b").unwrap().count, 1);
        assert_eq!(back.phase("c").unwrap().calls, 1);
    }

    #[test]
    fn atomic_recorder_is_thread_safe() {
        let r = AtomicRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u64 {
                        r.incr("n", 1);
                        r.observe("v", i);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), Some(4000));
        assert_eq!(snap.histogram("v").unwrap().count, 4000);
    }

    #[test]
    fn histogram_handles_zero_valued_observations() {
        let r = AtomicRecorder::new();
        for _ in 0..10 {
            r.observe("z", 0);
        }
        let h = r.snapshot().histogram("z").unwrap().clone();
        assert_eq!(h.count, 10);
        assert_eq!(h.sum, 0);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 0);
        // All ten land in bucket 0, and every percentile resolves to 0.
        assert_eq!(h.buckets, vec![10]);
        assert_eq!((h.p50, h.p90, h.p99), (0, 0, 0));
    }

    #[test]
    fn histogram_saturates_at_u64_max_instead_of_wrapping() {
        let r = AtomicRecorder::new();
        r.observe("big", u64::MAX);
        r.observe("big", u64::MAX);
        r.observe("big", 1);
        let h = r.snapshot().histogram("big").unwrap().clone();
        assert_eq!(h.count, 3);
        // Two u64::MAX observations would wrap the sum to u64::MAX - 1 under
        // fetch_add; the saturating accumulator pins it instead.
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, u64::MAX);
        // u64::MAX lands in the top bucket [2^63, u64::MAX], whose upper
        // bound is what the bucket-resolution percentile reports.
        assert_eq!(h.p99, u64::MAX);
        // Merging saturated snapshots saturates too.
        let agg = AtomicRecorder::new();
        agg.merge(&r.snapshot());
        agg.merge(&r.snapshot());
        let merged = agg.snapshot().histogram("big").unwrap().clone();
        assert_eq!(merged.count, 6);
        assert_eq!(merged.sum, u64::MAX);
    }

    #[test]
    fn snapshot_merge_is_deterministic_across_thread_counts() {
        // The same 64 observations split round-robin across k per-worker
        // recorders and merged must produce one identical snapshot for
        // every k — the aggregation the engine does per worker.
        let values: Vec<u64> = (0..64u64).map(|i| i.wrapping_mul(37) % 1000).collect();
        let mut snapshots = Vec::new();
        for k in [1usize, 2, 4, 8] {
            let workers: Vec<AtomicRecorder> = (0..k).map(|_| AtomicRecorder::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                workers[i % k].observe("lat", v);
                workers[i % k].incr("n", 1);
            }
            let agg = AtomicRecorder::new();
            for w in &workers {
                agg.merge(&w.snapshot());
            }
            snapshots.push(agg.snapshot());
        }
        for s in &snapshots[1..] {
            assert_eq!(
                s, &snapshots[0],
                "merged snapshot differs across thread counts"
            );
        }
        assert_eq!(snapshots[0].counter("n"), Some(64));
        assert_eq!(snapshots[0].histogram("lat").unwrap().count, 64);
    }

    #[test]
    fn merge_folds_counters_histograms_and_phases() {
        let a = AtomicRecorder::new();
        let b = AtomicRecorder::new();
        a.incr("x", 1);
        b.incr("x", 2);
        b.observe("h", 5);
        a.merge(&b.snapshot());
        let snap = a.snapshot();
        assert_eq!(snap.counter("x"), Some(3));
        assert_eq!(snap.histogram("h").unwrap().count, 1);
    }
}

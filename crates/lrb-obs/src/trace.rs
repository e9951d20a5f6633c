//! Span timelines: per-thread [`ThreadTracer`] lanes and the
//! [`TraceCollector`] that owns them.
//!
//! A `ThreadTracer` is the timeline implementation of
//! [`Recorder`](crate::Recorder): every span opened through
//! [`span_with`](crate::Recorder::span_with) or
//! [`time`](crate::Recorder::time) becomes one [`SpanEvent`], and
//! [`instant`](crate::Recorder::instant) markers become instant events.
//! Counters and histogram observations are not span-shaped and are
//! dropped; run an [`AtomicRecorder`](crate::AtomicRecorder) when totals
//! are needed. So solver phases, simulator epochs and engine scheduling
//! all reach a trace through the same generic `R: Recorder` parameter that
//! feeds metrics, with no second plumbing path.
//!
//! A lane is lock-free (single-owner, `!Sync`). A `TraceCollector` owns
//! one lane per worker plus a main lane; after a run it drains every lane
//! into a versioned [`Trace`].
//!
//! Span timeline events carry wall-clock offsets read from a shared origin
//! `Instant`, so lanes share one timebase and a Chrome trace-event export
//! nests spans by containment. Clock reads are inherently nondeterministic;
//! determinism is recovered by [`Trace::determinism_hash`], an
//! order-independent multiset fingerprint over the *logical* content of
//! events (name, kind, value) that excludes all timestamps/durations and all
//! scheduling-lane events (`sched: true`) — the only events whose *count*
//! depends on thread interleaving. For a fixed seed the hash is therefore
//! identical across reruns and across thread counts.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use crate::recorder::Recorder;

/// Version of the trace event model exported as `TRACE_1.json`. Bump when
/// event fields change meaning.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Shape of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration span (Chrome `"X"` complete event).
    Complete,
    /// A point-in-time marker (Chrome `"i"` instant event).
    Instant,
}

/// One buffered trace event. Timestamps are nanosecond offsets from the
/// collector's shared origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name — a `names::` const, never an inline literal.
    pub name: &'static str,
    /// Lane id: 0 is the main thread, workers are `1..=threads`.
    pub tid: u32,
    /// Deterministic per-lane sequence number (span id within the lane).
    pub seq: u64,
    /// Start offset from the trace origin, in nanoseconds.
    pub ts_nanos: u64,
    /// Duration in nanoseconds (0 for instants, >= 1 for closed spans).
    pub dur_nanos: u64,
    /// Complete span or instant marker.
    pub kind: SpanKind,
    /// Event payload: item index, worker id, epoch, steal depth, ...
    pub v: u64,
    /// `true` for scheduling-lane events (claim/steal/queue-wait), whose
    /// count depends on thread interleaving; excluded from the
    /// determinism hash.
    pub sched: bool,
}

/// One lane of buffered span events, owned by exactly one thread at a time.
///
/// `Send` but `!Sync` (interior `RefCell`/`Cell` state): the engine hands
/// each worker `&mut`-exclusive access, mirroring how per-worker `Scratch`
/// arenas are distributed, so the hot path needs no locks or atomics.
pub struct ThreadTracer {
    tid: u32,
    origin: Instant,
    events: RefCell<Vec<SpanEvent>>,
    open: RefCell<Vec<usize>>,
    seq: Cell<u64>,
}

impl ThreadTracer {
    /// New empty lane with the given id, sharing the collector's origin.
    pub fn new(tid: u32, origin: Instant) -> Self {
        ThreadTracer {
            tid,
            origin,
            events: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            seq: Cell::new(0),
        }
    }

    /// Lane id (0 = main thread).
    pub fn tid(&self) -> u32 {
        self.tid
    }

    fn now_nanos(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    fn into_events(self) -> Vec<SpanEvent> {
        self.events.into_inner()
    }
}

impl Recorder for ThreadTracer {
    const ENABLED: bool = true;
    const TIMELINE: bool = true;

    #[inline(always)]
    fn incr(&self, _counter: &'static str, _by: u64) {}

    #[inline(always)]
    fn observe(&self, _histogram: &'static str, _value: u64) {}

    fn enter(&self, name: &'static str, v: u64, sched: bool) -> Option<Instant> {
        // Trace timestamps are excluded from the determinism hash.
        let ts_nanos = self.now_nanos();
        let mut events = self.events.borrow_mut();
        self.open.borrow_mut().push(events.len());
        events.push(SpanEvent {
            name,
            tid: self.tid,
            seq: self.next_seq(),
            ts_nanos,
            dur_nanos: 0,
            kind: SpanKind::Complete,
            v,
            sched,
        });
        None
    }

    fn exit(&self, _name: &'static str, _start: Option<Instant>) {
        // Trace timestamps are excluded from the determinism hash.
        let now = self.now_nanos();
        if let Some(idx) = self.open.borrow_mut().pop() {
            let ev = &mut self.events.borrow_mut()[idx];
            // Clamp to >= 1ns so a closed span is distinguishable from an
            // instant even under coarse clocks.
            ev.dur_nanos = now.saturating_sub(ev.ts_nanos).max(1);
        }
    }

    fn instant(&self, name: &'static str, v: u64, sched: bool) {
        // Trace timestamps are excluded from the determinism hash.
        let ts_nanos = self.now_nanos();
        self.events.borrow_mut().push(SpanEvent {
            name,
            tid: self.tid,
            seq: self.next_seq(),
            ts_nanos,
            dur_nanos: 0,
            kind: SpanKind::Instant,
            v,
            sched,
        });
    }
}

/// Owns one [`ThreadTracer`] lane per engine worker plus a main lane, all
/// sharing a single origin instant.
pub struct TraceCollector {
    lanes: Vec<ThreadTracer>,
}

impl TraceCollector {
    /// Collector with a main lane (tid 0) and `workers.max(1)` worker lanes
    /// (tids `1..=workers`).
    pub fn new(workers: usize) -> Self {
        // Trace timebase origin; timestamps never feed the determinism hash.
        let origin = Instant::now();
        let lanes = (0..=workers.max(1))
            .map(|tid| ThreadTracer::new(tid as u32, origin))
            .collect();
        TraceCollector { lanes }
    }

    /// The main-thread lane.
    pub fn main(&self) -> &ThreadTracer {
        &self.lanes[0]
    }

    /// The main lane plus exclusive access to the worker lanes, for
    /// distribution across engine workers (lane `w` goes to worker `w`).
    pub fn lanes_mut(&mut self) -> (&ThreadTracer, &mut [ThreadTracer]) {
        let (main, workers) = self.lanes.split_at_mut(1);
        (&main[0], workers)
    }

    /// Drain every lane into a finished [`Trace`].
    pub fn finish(self, scenario: &str, seed: u64, threads: usize, solver: &str) -> Trace {
        let mut events = Vec::new();
        for lane in self.lanes {
            events.extend(lane.into_events());
        }
        Trace {
            schema_version: TRACE_SCHEMA_VERSION,
            scenario: scenario.to_string(),
            seed,
            threads,
            solver: solver.to_string(),
            events,
        }
    }
}

/// A finished trace: every lane's events plus run identity, ready for the
/// CLI's Chrome trace-event export.
#[derive(Debug, Clone)]
pub struct Trace {
    /// [`TRACE_SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Scenario label (e.g. `smoke_ladder`).
    pub scenario: String,
    /// Workload seed.
    pub seed: u64,
    /// Requested engine thread count.
    pub threads: usize,
    /// Solver label.
    pub solver: String,
    /// All events from all lanes, main lane first.
    pub events: Vec<SpanEvent>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Trace {
    /// Order-independent multiset fingerprint of the trace's logical
    /// content: per-event hashes of `(name, kind, v)` combined with a
    /// commutative wrapping sum. Timestamps/durations (clock reads) and
    /// scheduling-lane events (`sched: true`, whose count depends on thread
    /// interleaving) are excluded, so for a fixed seed the hash is identical
    /// across reruns *and* across thread counts.
    pub fn determinism_hash(&self) -> u64 {
        let mut acc = splitmix64(u64::from(self.schema_version));
        for ev in self.events.iter().filter(|e| !e.sched) {
            let kind_tag = match ev.kind {
                SpanKind::Complete => 1u64,
                SpanKind::Instant => 2u64,
            };
            let mut h = fnv64(ev.name.as_bytes());
            h = splitmix64(h ^ kind_tag.rotate_left(17));
            h = splitmix64(h ^ ev.v.rotate_left(32));
            acc = acc.wrapping_add(splitmix64(h));
        }
        acc
    }

    /// Events with the given name.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEvent> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Total duration across all spans with the given name.
    pub fn total_dur_nanos(&self, name: &str) -> u64 {
        self.events_named(name).map(|e| e.dur_nanos).sum()
    }

    /// Fraction of the `container` spans' total wall time covered by the
    /// `leaves` spans (clamped to 1.0; 1.0 when the container never ran).
    /// The engine attribution check uses `engine.worker` as the container
    /// and claim/queue-wait/solve as the leaves.
    pub fn attributed_fraction(&self, container: &str, leaves: &[&str]) -> f64 {
        let total = self.total_dur_nanos(container);
        if total == 0 {
            return 1.0;
        }
        let covered: u64 = leaves.iter().map(|l| self.total_dur_nanos(l)).sum();
        (covered as f64 / total as f64).min(1.0)
    }

    /// Number of complete spans.
    pub fn span_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == SpanKind::Complete)
            .count()
    }

    /// Number of instant events.
    pub fn instant_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == SpanKind::Instant)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_raii_order() {
        let c = TraceCollector::new(1);
        {
            let t = c.main();
            let _outer = t.span_with("outer", 10, false);
            {
                let _inner = t.span_with("inner", 11, false);
            }
            t.instant("mark", 12, false);
        }
        let trace = c.finish("test", 0, 1, "none");
        assert_eq!(trace.events.len(), 3);
        let outer = trace.events_named("outer").next().unwrap();
        let inner = trace.events_named("inner").next().unwrap();
        let mark = trace.events_named("mark").next().unwrap();
        assert_eq!(outer.seq, 0);
        assert_eq!(inner.seq, 1);
        assert!(outer.dur_nanos >= inner.dur_nanos);
        // The inner span's interval is contained in the outer span's.
        assert!(inner.ts_nanos >= outer.ts_nanos);
        assert!(
            inner.ts_nanos + inner.dur_nanos <= outer.ts_nanos + outer.dur_nanos,
            "inner span must end within the outer span"
        );
        assert_eq!(mark.kind, SpanKind::Instant);
        assert_eq!(mark.dur_nanos, 0);
        assert_eq!(trace.span_count(), 2);
        assert_eq!(trace.instant_count(), 1);
    }

    #[test]
    fn timed_phases_become_complete_spans_and_totals_are_dropped() {
        let c = TraceCollector::new(1);
        {
            let _p = c.main().time("phase");
            c.main().incr("counter", 1);
            c.main().observe("histogram", 1);
        }
        let trace = c.finish("test", 0, 1, "none");
        assert_eq!(trace.events.len(), 1);
        let ev = trace.events_named("phase").next().unwrap();
        assert!(ev.dur_nanos >= 1);
        assert_eq!((ev.kind, ev.v, ev.sched), (SpanKind::Complete, 0, false));
    }

    #[test]
    fn determinism_hash_ignores_time_order_and_sched_events() {
        let build = |shuffle: bool, extra_sched: usize| {
            let mut c = TraceCollector::new(2);
            let (main, workers) = c.lanes_mut();
            let names: &[&'static str] = &["alpha", "beta", "gamma"];
            let order: Vec<usize> = if shuffle {
                vec![2, 0, 1]
            } else {
                vec![0, 1, 2]
            };
            for (lane, &i) in order.iter().enumerate() {
                // Spread the same logical events across different lanes in
                // a different order; the multiset is unchanged.
                let t = &workers[lane % 2];
                let _s = t.span_with(names[i], i as u64, false);
            }
            for _ in 0..extra_sched {
                main.instant("steal", 3, true);
            }
            c.finish("test", 7, 2, "none").determinism_hash()
        };
        assert_eq!(build(false, 0), build(true, 0));
        // Scheduling-lane noise must not move the hash.
        assert_eq!(build(false, 0), build(false, 5));
        // But a different logical multiset must.
        let c = TraceCollector::new(2);
        {
            let _s = c.main().span_with("delta", 9, false);
        }
        assert_ne!(
            build(false, 0),
            c.finish("test", 7, 2, "none").determinism_hash()
        );
    }

    #[test]
    fn attribution_covers_leaf_spans() {
        let mut c = TraceCollector::new(1);
        {
            let t = &c.lanes_mut().1[0];
            let _w = t.span_with("worker", 0, true);
            for i in 0..50u64 {
                let _s = t.span_with("solve", i, false);
                std::hint::black_box(i.wrapping_mul(0x9e37_79b9));
            }
        }
        let trace = c.finish("test", 0, 1, "none");
        let frac = trace.attributed_fraction("worker", &["solve"]);
        assert!(frac > 0.0 && frac <= 1.0, "fraction {frac} out of range");
        // A container that never ran attributes trivially.
        assert_eq!(trace.attributed_fraction("absent", &["solve"]), 1.0);
    }

    #[test]
    fn collector_lanes_are_distinct_and_share_a_timebase() {
        let mut c = TraceCollector::new(3);
        let (main, workers) = c.lanes_mut();
        assert_eq!(main.tid(), 0);
        let tids: Vec<u32> = workers.iter().map(|t| t.tid()).collect();
        assert_eq!(tids, vec![1, 2, 3]);
        // Worker lanes are Send: hand them to scoped threads like Scratches.
        std::thread::scope(|s| {
            for t in workers {
                s.spawn(move || {
                    let _span = t.span_with("w", u64::from(t.tid()), true);
                });
            }
        });
        let trace = c.finish("test", 0, 3, "none");
        assert_eq!(trace.events_named("w").count(), 3);
    }
}

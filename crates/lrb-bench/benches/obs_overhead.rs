//! Zero-cost check for `NoopRecorder`: the instrumented code paths, when
//! monomorphized over the no-op recorder, must run at the same speed as
//! uninstrumented code. Measures a hot loop with per-iteration counter,
//! histogram, span and instant traffic against the identical loop without
//! it and asserts the medians agree within 2%, then benchmarks a real
//! algorithm under the no-op and atomic recorders and the batch engine
//! with and without a live trace collector, for context.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lrb_core::greedy::{self, ReinsertOrder};
use lrb_engine::{solve_batch, solve_batch_recorded, BatchItem, BatchSolver, EngineConfig};
use lrb_harness::bench::smoke_ladder;
use lrb_instances::generators::{CostModel, GeneratorConfig, PlacementModel, SizeDistribution};
use lrb_obs::{AtomicRecorder, NoopRecorder, Recorder, TraceCollector};

/// The uninstrumented hot loop.
fn plain_sum(data: &[u64]) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        acc = acc.wrapping_add(v).rotate_left(7) ^ v;
    }
    acc
}

/// The same loop with per-iteration recorder traffic: a counter, a
/// histogram observation, a span guard opened and dropped, and an instant.
/// With `NoopRecorder` every call monomorphizes to nothing.
fn recorded_sum<R: Recorder>(data: &[u64], rec: &R) -> u64 {
    let mut acc = 0u64;
    for &v in data {
        let _span = rec.span_with("bench.iteration", v, false);
        rec.incr("bench.iterations", 1);
        rec.observe("bench.values", v);
        rec.instant("bench.value", v, false);
        acc = acc.wrapping_add(v).rotate_left(7) ^ v;
    }
    acc
}

/// Median wall time of `runs` timed executions of `f`.
fn median_nanos(runs: usize, mut f: impl FnMut() -> u64) -> u64 {
    let mut samples: Vec<u64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn assert_noop_is_free(data: &[u64]) {
    // Warm up, then interleave-independent medians over many runs so a
    // single scheduler hiccup cannot decide the outcome.
    let runs = 101;
    for _ in 0..10 {
        black_box(plain_sum(black_box(data)));
        black_box(recorded_sum(black_box(data), &NoopRecorder));
    }
    let plain = median_nanos(runs, || plain_sum(black_box(data)));
    let noop = median_nanos(runs, || recorded_sum(black_box(data), &NoopRecorder));
    // 2% tolerance plus a 20us absolute floor to absorb timer granularity.
    let limit = plain + plain / 50 + 20_000;
    assert!(
        noop <= limit,
        "NoopRecorder overhead above 2%: plain {plain}ns vs noop {noop}ns"
    );
    println!("noop overhead check: plain {plain}ns, noop {noop}ns (limit {limit}ns) — ok");
}

fn bench_obs_overhead(c: &mut Criterion) {
    let data: Vec<u64> = (0..65_536u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 1_000)
        .collect();
    assert_noop_is_free(&data);

    c.bench_function("hot_loop/plain", |b| b.iter(|| plain_sum(black_box(&data))));
    c.bench_function("hot_loop/noop_recorded", |b| {
        b.iter(|| recorded_sum(black_box(&data), &NoopRecorder))
    });
    c.bench_function("hot_loop/atomic_recorded", |b| {
        let rec = AtomicRecorder::new();
        b.iter(|| recorded_sum(black_box(&data), &rec))
    });

    // A real instrumented algorithm under both recorders.
    let inst = GeneratorConfig {
        n: 200,
        m: 8,
        sizes: SizeDistribution::Pareto {
            scale: 5,
            alpha: 1.4,
        },
        placement: PlacementModel::Skewed { skew: 1.0 },
        costs: CostModel::Unit,
    }
    .generate(7);
    c.bench_function("greedy/noop_recorder", |b| {
        b.iter(|| {
            greedy::rebalance_with_order_recorded(
                &inst,
                20,
                ReinsertOrder::Descending,
                &NoopRecorder,
            )
            .unwrap()
            .0
            .makespan()
        })
    });
    c.bench_function("greedy/atomic_recorder", |b| {
        let rec = AtomicRecorder::new();
        b.iter(|| {
            greedy::rebalance_with_order_recorded(&inst, 20, ReinsertOrder::Descending, &rec)
                .unwrap()
                .0
                .makespan()
        })
    });

    // The batch engine uninstrumented vs. under a live collector.
    let batch = &smoke_ladder(7)[0];
    let items: Vec<BatchItem> = batch
        .instances
        .iter()
        .map(|inst| BatchItem {
            instance: inst.clone(),
            budget: batch.budget,
        })
        .collect();
    let cfg = EngineConfig::with_threads(2);
    c.bench_function("engine_batch/untraced", |b| {
        b.iter(|| {
            solve_batch(black_box(&items), BatchSolver::MPartition, &cfg)
                .outcomes
                .len()
        })
    });
    c.bench_function("engine_batch/live_collector", |b| {
        b.iter(|| {
            let mut collector = TraceCollector::new(2);
            solve_batch_recorded(
                black_box(&items),
                BatchSolver::MPartition,
                &cfg,
                &mut collector,
            )
            .outcomes
            .len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_obs_overhead
}
criterion_main!(benches);

//! `engine_ladder` and `engine_epochs`: batches through `lrb-engine`.
//!
//! * `engine_ladder` solves `lrb_harness::bench::standard_ladder(seed, 32)`,
//!   one `solve_batch` call per rung. The solves are large and almost all of
//!   them hit the threshold-ladder cache, so core search and PARTITION
//!   dominate and per-batch engine overhead is small. A latency sample is
//!   one pass over the four rungs: per-call times are four-modal (one mode
//!   per rung size), which leaves no stable median.
//! * `engine_epochs` feeds a `StreamEngine` back-to-back epochs of 16 items,
//!   each a fresh job multiset, so every ladder lookup misses and per-epoch
//!   thread spawns, steals, and the uncached ladder build dominate. A
//!   latency sample is one `solve_epoch` call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lrb_core::bounds::lower_bound;
use lrb_core::model::{Budget, Instance};
use lrb_core::mpartition::{self, ThresholdSearch};
use lrb_core::outcome::RebalanceOutcome;
use lrb_core::partition;
use lrb_core::profiles::Profiles;
use lrb_core::scratch::Scratch;
use lrb_engine::{solve_batch, BatchItem, BatchReport, BatchSolver, EngineConfig, StreamEngine};
use lrb_obs::{names, AtomicRecorder};
use lrb_serve::state::splitmix64;

use crate::report::{mean, median, peak_rss_mb, EndToEnd, Layers, Measured, Slices};
use crate::spans::{self, SpanLog};
use crate::{host_threads, Settings};

/// Which engine workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `standard_ladder` rungs through `solve_batch`.
    Ladder,
    /// Fresh-multiset epochs through `StreamEngine::solve_epoch`.
    Epochs,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Ladder => "engine_ladder",
            Shape::Epochs => "engine_epochs",
        }
    }
}

/// Items per `engine_epochs` epoch.
const EPOCH_ITEMS: usize = 16;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 40;
/// Share of the window measured at 1 thread; the rest runs at `mt`.
const ONE_THREAD_SHARE: f64 = 0.75;
/// Target length of one timed slice (see [`Slices`]).
const SLICE: Duration = Duration::from_millis(500);
/// Timed passes over the inputs for the inline per-layer core figures.
const CORE_PASSES: usize = 5;

/// The workload's batches, in solve order. Deterministic in the seed.
pub fn inputs(shape: Shape, seed: u64, smoke: bool) -> Vec<Vec<BatchItem>> {
    match shape {
        Shape::Ladder => {
            let variants = if smoke { 4 } else { 32 };
            lrb_harness::bench::standard_ladder(seed, variants)
                .into_iter()
                .map(|rung| {
                    rung.instances
                        .into_iter()
                        .map(|instance| BatchItem {
                            instance,
                            budget: rung.budget,
                        })
                        .collect()
                })
                .collect()
        }
        Shape::Epochs => {
            let epochs = if smoke { 4 } else { 64 };
            (0..epochs)
                .map(|e| {
                    (0..EPOCH_ITEMS)
                        .map(|i| epoch_item(seed, (e * EPOCH_ITEMS + i) as u64))
                        .collect()
                })
                .collect()
        }
    }
}

/// One `engine_epochs` item: n ∈ [32, 64] jobs of size 1–100 placed
/// uniformly on 4 processors, budget k = n/8.
fn epoch_item(seed: u64, index: u64) -> BatchItem {
    let mut h = splitmix64(seed ^ splitmix64(index.wrapping_add(1)));
    let n = 32 + (h % 33) as usize;
    let mut sizes = Vec::with_capacity(n);
    let mut placement = Vec::with_capacity(n);
    for _ in 0..n {
        h = splitmix64(h);
        sizes.push(1 + h % 100);
        placement.push(((h >> 32) % 4) as usize);
    }
    BatchItem {
        instance: Instance::from_sizes(&sizes, placement, 4).expect("generated instance is valid"),
        budget: Budget::Moves(n / 8),
    }
}

/// The move budget `k` of a benchmark item (every input uses move budgets).
pub fn moves_of(budget: Budget) -> usize {
    match budget {
        Budget::Moves(k) => k,
        Budget::Cost(_) => unreachable!("benchmark inputs use move budgets"),
    }
}

/// Check one engine outcome against its item: a full-length assignment onto
/// existing processors, at most `k` moves, a makespan equal to the loads
/// recomputed from the assignment, and a makespan no lower than
/// `bounds::lower_bound`.
///
/// # Errors
///
/// A description of the first violated condition.
pub fn check_outcome(item: &BatchItem, out: &RebalanceOutcome) -> Result<(), String> {
    let inst = &item.instance;
    let a = out.assignment();
    if a.len() != inst.num_jobs() {
        return Err(format!(
            "assignment has {} of {} jobs",
            a.len(),
            inst.num_jobs()
        ));
    }
    let k = moves_of(item.budget);
    let moved = inst.initial().iter().zip(a).filter(|(x, y)| x != y).count();
    if moved > k || out.moves() > k {
        return Err(format!(
            "{moved} moves ({} reported) exceed k = {k}",
            out.moves()
        ));
    }
    let mut loads = vec![0u64; inst.num_procs()];
    for (j, &p) in a.iter().enumerate() {
        let Some(load) = loads.get_mut(p) else {
            return Err(format!("job {j} on processor {p} of {}", inst.num_procs()));
        };
        *load += inst.size(j);
    }
    let recomputed = loads.iter().copied().max().unwrap_or(0);
    if recomputed != out.makespan() {
        return Err(format!(
            "makespan {} but loads give {recomputed}",
            out.makespan()
        ));
    }
    let lb = lower_bound(inst, item.budget);
    if out.makespan() < lb {
        return Err(format!(
            "makespan {} below lower bound {lb}",
            out.makespan()
        ));
    }
    Ok(())
}

/// Order-dependent digest of outcomes: assignments and makespans.
pub fn outcome_digest(outcomes: &[RebalanceOutcome]) -> u64 {
    outcomes.iter().fold(0x5eed, |h, o| {
        let h = o
            .assignment()
            .iter()
            .fold(h, |h, &p| splitmix64(h ^ p as u64));
        splitmix64(h ^ o.makespan())
    })
}

/// The engine entry point a workload drives.
enum Exec {
    Batch(EngineConfig),
    Stream(StreamEngine),
}

impl Exec {
    fn new(shape: Shape, threads: usize) -> Self {
        let cfg = EngineConfig::with_threads(threads);
        match shape {
            Shape::Ladder => Exec::Batch(cfg),
            Shape::Epochs => Exec::Stream(StreamEngine::new(BatchSolver::MPartition, &cfg)),
        }
    }

    fn span_name(&self) -> &'static str {
        match self {
            Exec::Batch(_) => "engine.solve_batch",
            Exec::Stream(_) => "engine.solve_epoch",
        }
    }

    fn solve(&mut self, items: &[BatchItem]) -> BatchReport {
        match self {
            Exec::Batch(cfg) => solve_batch(items, BatchSolver::MPartition, cfg),
            Exec::Stream(engine) => engine.solve_epoch(items),
        }
    }
}

/// One engine call as the caller saw it.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Index of the call's first item in the flattened input.
    pub first_item: usize,
    /// Items in the call.
    pub len: usize,
    /// Wall time of the call.
    pub wall_ns: u64,
    /// Workers the engine used.
    pub workers: usize,
    /// Items stolen across worker stripes.
    pub steals: u64,
}

/// One engine (1 thread or `mt`) and what its timed slices observed.
struct Timed {
    exec: Exec,
    slices: Slices,
    items: u64,
    /// Every call, kept only in a traced measurement.
    calls: Vec<Call>,
    first_pass: Vec<RebalanceOutcome>,
}

impl Timed {
    fn new(exec: Exec) -> Self {
        Timed {
            exec,
            slices: Slices::default(),
            items: 0,
            calls: Vec::new(),
            first_pass: Vec::new(),
        }
    }

    /// Run `window` as consecutive slices of about [`SLICE`] each.
    fn run_phase(
        &mut self,
        shape: Shape,
        input: &[Vec<BatchItem>],
        window: Duration,
        log: &mut SpanLog,
    ) {
        let n = (window.as_secs_f64() / SLICE.as_secs_f64())
            .round()
            .max(1.0);
        for _ in 0..n as usize {
            self.run_slice(shape, input, window.div_f64(n), log);
        }
    }

    /// Solve whole passes over `input` until `slice` has elapsed (at least
    /// one pass); the first pass's outcomes are kept for the output checks.
    fn run_slice(
        &mut self,
        shape: Shape,
        input: &[Vec<BatchItem>],
        slice: Duration,
        log: &mut SpanLog,
    ) {
        let mut lat_ns = Vec::new();
        let mut ops = 0;
        let start = Instant::now();
        loop {
            let mut pass_ns = 0;
            let mut first_item = 0;
            for items in input {
                log.enter(self.exec.span_name());
                let t0 = Instant::now();
                let report = black_box(self.exec.solve(black_box(items)));
                let wall_ns = elapsed_ns(t0);
                log.exit();
                pass_ns += wall_ns;
                if shape == Shape::Epochs {
                    lat_ns.push(wall_ns);
                }
                if log.enabled() {
                    self.calls.push(Call {
                        first_item,
                        len: items.len(),
                        wall_ns,
                        workers: report.workers,
                        steals: report.steals,
                    });
                }
                first_item += items.len();
                if self.first_pass.len() < first_item {
                    self.first_pass.extend(report.outcomes);
                }
            }
            if shape == Shape::Ladder {
                lat_ns.push(pass_ns);
            }
            ops += first_item as u64;
            if start.elapsed() >= slice {
                break;
            }
        }
        self.items += ops;
        self.slices.push(lat_ns, ops, elapsed_ns(start));
    }
}

/// Solve one pass over `input`.
fn warm_up(exec: &mut Exec, input: &[Vec<BatchItem>], log: &mut SpanLog) {
    for items in input {
        log.time(exec.span_name(), || black_box(exec.solve(items)));
    }
}

/// Nanoseconds since `t0`.
pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Measure one engine workload; see [`crate::run`].
///
/// # Errors
///
/// Failure to write the span file of a traced measurement.
pub fn measure(shape: Shape, s: &Settings) -> Result<Measured, String> {
    let origin = Instant::now();
    let mut log = SpanLog::new(s.traced, "main", origin);

    // Set-up: build the inputs, construct the 1-thread engine (and its
    // scratch), and warm it up with one pass. The mt engine serves only
    // ungated figures, so its set-up stays outside `setup_s`.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        log.enter("bench.setup");
        let input = log.time("bench.build_inputs", || inputs(shape, s.seed, s.smoke));
        let mut one = Exec::new(shape, 1);
        warm_up(&mut one, &input, &mut log);
        log.exit();
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some((input, one));
    }
    let (input, one) = built.expect("at least one set-up repetition");
    let mut many = Exec::new(shape, host_threads());
    warm_up(&mut many, &input, &mut log);

    // The end-to-end figures are taken at 1 thread over most of the
    // window. At mt on a shared 2-core host they move by up to a third
    // between runs with the CPU time the hypervisor takes from the VM, so
    // the mt phase only feeds the bit-identity check, the info line, and
    // the traced run's engine layer.
    let (mut one, mut many) = (Timed::new(one), Timed::new(many));
    let one_window = s.window.mul_f64(ONE_THREAD_SHARE);
    log.enter("bench.phase_1t");
    one.run_phase(shape, &input, one_window, &mut log);
    log.exit();
    log.enter("bench.phase_mt");
    many.run_phase(shape, &input, s.window - one_window, &mut log);
    log.exit();

    let flat: Vec<BatchItem> = input.iter().flatten().cloned().collect();
    let mut m = Measured {
        attempted: one.items + many.items,
        ..Measured::default()
    };
    check_phases(&flat, &one.first_pass, &many.first_pass, &mut m);
    let (rate, p50, p99) = one.slices.figures();
    m.e2e = EndToEnd {
        setup_s: median(&setup_s),
        ops_per_s: rate,
        lat_p50_us: p50 / 1e3,
        lat_p99_us: p99 / 1e3,
        peak_rss_mb: peak_rss_mb(),
    };
    let (rate_mt, p50_mt, p99_mt) = many.slices.figures();
    let mt_figures = [
        ("engine.ops_per_s_mt", rate_mt),
        ("engine.lat_p50_mt_us", p50_mt / 1e3),
        ("engine.lat_p99_mt_us", p99_mt / 1e3),
    ];
    m.info.push((
        "digest".into(),
        format!("{:016x}", outcome_digest(&one.first_pass)),
    ));
    m.info.extend(
        mt_figures
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string())),
    );

    if s.traced {
        let (core, per_item_ns) = log.time("bench.core_pass", || core_layers(&flat));
        m.layers.extend(core);
        m.layers.extend(mt_figures);
        m.layers.extend(engine_layers(&many.calls, &per_item_ns));
        let path = s
            .work_dir
            .join(format!("spans-{}-seed{}.json", shape.name(), s.seed));
        let n = spans::write_json(&path, &[&log]).map_err(|e| format!("span file: {e}"))?;
        m.info
            .push(("spans".into(), format!("{n} in {}", path.display())));
    }
    Ok(m)
}

/// The engine output checks: every outcome of the first 1-thread pass is
/// valid for its item, and the first `mt` pass is bit-identical to it.
pub fn check_phases(
    flat: &[BatchItem],
    one: &[RebalanceOutcome],
    many: &[RebalanceOutcome],
    m: &mut Measured,
) {
    if one.len() != flat.len() {
        m.problems
            .push(format!("{} outcomes for {} items", one.len(), flat.len()));
    }
    for (i, (item, out)) in flat.iter().zip(one).enumerate() {
        if let Err(e) = check_outcome(item, out) {
            m.failed += 1;
            if m.problems.len() < 8 {
                m.problems.push(format!("item {i}: {e}"));
            }
        }
    }
    if one != many {
        m.problems
            .push("outcomes at 1 thread and mt threads differ".into());
    }
}

/// Per-layer core figures over `items`, solved inline in order on one warm
/// scratch. Also returns each item's mean inline solve time (ns), the
/// input to `engine.sched_overhead_us`.
pub fn core_layers(items: &[BatchItem]) -> (Layers, Vec<f64>) {
    let mut layers = Layers::new();
    let mut scratch = Scratch::new();
    let solve = |item: &BatchItem, scratch: &mut Scratch| {
        mpartition::rebalance_scratch(&item.instance, moves_of(item.budget), scratch)
            .expect("engine inputs solve")
    };
    for item in items {
        black_box(solve(item, &mut scratch));
    }
    let mut per_item_ns = vec![0.0; items.len()];
    for _ in 0..CORE_PASSES {
        for (item, slot) in items.iter().zip(&mut per_item_ns) {
            let t0 = Instant::now();
            black_box(solve(item, &mut scratch));
            *slot += elapsed_ns(t0) as f64 / CORE_PASSES as f64;
        }
    }
    let n = items.len() as u64;
    layers.insert("core.solve_us", mean(per_item_ns.iter().sum(), n) / 1e3);

    // The program's own phase timers and counters, through the recorded
    // entry point on the same warm scratch.
    let rec = AtomicRecorder::new();
    let (hits0, misses0) = (scratch.ladder_hits(), scratch.ladder_misses());
    let mut probes = 0;
    let mut thresholds = Vec::with_capacity(items.len());
    for item in items {
        let run = mpartition::rebalance_scratch_recorded(
            &item.instance,
            moves_of(item.budget),
            ThresholdSearch::default(),
            &rec,
            &mut scratch,
        )
        .expect("engine inputs solve");
        probes += run.probes as u64;
        thresholds.push(run.threshold);
    }
    let snap = rec.snapshot();
    let phase_us = |name| {
        snap.phase(name)
            .map_or(0.0, |p| mean(p.total_nanos as f64, p.calls) / 1e3)
    };
    layers.insert(
        "core.ladder_build_us",
        phase_us(names::MPARTITION_LADDER_BUILD),
    );
    layers.insert("core.search_us", phase_us(names::MPARTITION_SEARCH));
    layers.insert("core.partition_us", phase_us(names::MPARTITION_PARTITION));
    layers.insert("core.probes_per_solve", mean(probes as f64, n));
    let hits = scratch.ladder_hits() - hits0;
    let lookups = hits + (scratch.ladder_misses() - misses0);
    layers.insert("core.ladder_hit_ratio", mean(hits as f64, lookups));
    layers.insert("core.ladder_lookups", lookups as f64);

    // The uncached builds: `Profiles::new` and PARTITION on fresh profiles
    // at the threshold the search settled on.
    let (mut profiles_ns, mut partition_ns) = (0u64, 0u64);
    for _ in 0..CORE_PASSES {
        for (item, &t) in items.iter().zip(&thresholds) {
            let t0 = Instant::now();
            let profiles = black_box(Profiles::new(&item.instance));
            profiles_ns += elapsed_ns(t0);
            let t0 = Instant::now();
            black_box(partition::run_with_profiles(&item.instance, &profiles, t).ok());
            partition_ns += elapsed_ns(t0);
        }
    }
    let calls = n * CORE_PASSES as u64;
    layers.insert(
        "core.profiles_cold_us",
        mean(profiles_ns as f64, calls) / 1e3,
    );
    layers.insert(
        "core.partition_cold_us",
        mean(partition_ns as f64, calls) / 1e3,
    );
    (layers, per_item_ns)
}

/// Per-layer engine figures from the calls of a traced `mt` phase:
/// call wall time, scheduling overhead (wall − Σ inline solve time of the
/// call's items ÷ workers), and steals per item.
pub fn engine_layers(calls: &[Call], per_item_ns: &[f64]) -> Layers {
    let n = calls.len() as u64;
    let (mut wall, mut overhead, mut steals, mut items) = (0.0, 0.0, 0u64, 0u64);
    for c in calls {
        let solve: f64 = per_item_ns[c.first_item..c.first_item + c.len].iter().sum();
        wall += c.wall_ns as f64;
        overhead += c.wall_ns as f64 - solve / c.workers.max(1) as f64;
        steals += c.steals;
        items += c.len as u64;
    }
    Layers::from([
        ("engine.batch_us", mean(wall, n) / 1e3),
        ("engine.sched_overhead_us", mean(overhead, n) / 1e3),
        ("engine.steals_per_item", mean(steals as f64, items)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_move_past_the_budget_trips_the_check() {
        let item = &inputs(Shape::Epochs, 7, true)[0][0];
        let k = moves_of(item.budget);
        let good = mpartition::rebalance(&item.instance, k).unwrap().outcome;
        assert_eq!(check_outcome(item, &good), Ok(()));

        // Move k + 1 jobs off their initial processors.
        let m = item.instance.num_procs();
        let mut a = item.instance.initial().clone();
        for p in a.iter_mut().take(k + 1) {
            *p = (*p + 1) % m;
        }
        let bad = RebalanceOutcome::from_assignment(&item.instance, a).unwrap();
        let err = check_outcome(item, &bad).unwrap_err();
        assert!(err.contains("exceed k"), "{err}");
    }

    #[test]
    fn inputs_are_deterministic_in_the_seed() {
        for shape in [Shape::Ladder, Shape::Epochs] {
            let a = inputs(shape, 3, true);
            let b = inputs(shape, 3, true);
            let c = inputs(shape, 4, true);
            let key = |v: &Vec<Vec<BatchItem>>| -> Vec<Instance> {
                v.iter().flatten().map(|i| i.instance.clone()).collect()
            };
            assert_eq!(key(&a), key(&b));
            assert_ne!(key(&a), key(&c));
        }
    }
}

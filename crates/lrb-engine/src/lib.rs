//! # lrb-engine — batched multi-core rebalancing
//!
//! Solves many [`Instance`]s concurrently on `std::thread::scope` workers.
//! Two ideas carry the throughput:
//!
//! * **Scratch reuse.** Every worker owns one [`lrb_core::Scratch`] and
//!   drives the `*_scratch` entry points of the core solvers, so after
//!   warm-up the GREEDY / M-PARTITION hot paths allocate nothing per solve
//!   beyond the returned assignment. The scratch's threshold-ladder cache
//!   additionally amortizes the global size sort across same-job-multiset
//!   instances in a batch.
//! * **Work stealing.** The batch is split into contiguous per-worker
//!   stripes; a worker drains its own stripe with a single `fetch_add` and,
//!   when empty, steals from the victim with the most remaining items. This
//!   keeps same-multiset neighbors on the same worker (warm ladder cache)
//!   while still absorbing skewed per-item solve times.
//!
//! Results are written into input-order slots, and each item's outcome
//! depends only on the item itself (the scratch entry points are
//! bit-identical to their allocating twins — enforced by tests in
//! `lrb-core`), so a batch result is **bit-identical for any thread
//! count**. That property is what lets `lrb-sim` run epoch batches through
//! the engine without perturbing simulation traces, and it is re-checked
//! here and by the metamorphic suite at the workspace root.

pub mod schedule;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use lrb_core::hetero::Speeds;
use lrb_core::model::{Budget, Instance};
use lrb_core::outcome::RebalanceOutcome;
use lrb_core::scratch::Scratch;
use lrb_core::{cost_partition, greedy, hetero, mpartition};
use lrb_obs::{names, NoopRecorder, Recorder, TraceCollector};

use crate::schedule::{NoopShim, ScheduleShim, YieldPoint};

/// How the engine solves each item of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchSolver {
    /// GREEDY (`2 − 1/m`): fastest, weakest guarantee.
    Greedy,
    /// M-PARTITION (1.5) for move budgets; cost budgets fall through to the
    /// §3.2 cost algorithm — mirroring `lrb-sim`'s `MPartitionPolicy`.
    #[default]
    MPartition,
    /// Cost-PARTITION (§3.2) regardless of budget kind; move budgets are
    /// treated as unit-cost budgets.
    CostPartition,
}

/// One unit of work: an instance plus the relocation budget to solve under.
///
/// Budgets are *per item*, so one epoch batch may mix `Budget::Moves` and
/// `Budget::Cost` entries freely — under [`BatchSolver::MPartition`] each
/// item dispatches to the solver matching its own budget kind. This is what
/// makes stream batches **policy-generic**: an online fleet whose farms run
/// different [`lrb_core::online::MigrationPolicy`] implementations (a
/// move-billed `MoveBank` lane next to volume-billed migration-factor
/// lanes) still solves each lockstep epoch through a single
/// [`StreamEngine`], with results bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The rebalancing instance.
    pub instance: Instance,
    /// Move or cost budget.
    pub budget: Budget,
}

/// How the engine solves each item of a speed-scaled batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeteroBatchSolver {
    /// Speed-scaled GREEDY ([`lrb_core::hetero::rebalance_greedy`]).
    Greedy,
    /// Speed-scaled M-PARTITION
    /// ([`lrb_core::hetero::rebalance_mpartition`]).
    #[default]
    MPartition,
}

/// One unit of speed-scaled work: an instance, its per-processor speeds,
/// and a move budget.
#[derive(Debug, Clone)]
pub struct HeteroBatchItem {
    /// The rebalancing instance.
    pub instance: Instance,
    /// Per-processor speeds (must match the instance's processor count).
    pub speeds: Speeds,
    /// Move budget.
    pub moves: usize,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfig {
    /// Worker threads; `0` (the default) means the host's available
    /// parallelism (capped at 16). `1` solves inline on the calling thread.
    pub threads: usize,
}

impl EngineConfig {
    /// A config with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        EngineConfig { threads }
    }

    fn resolved_threads(&self, items: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(16)
        } else {
            self.threads
        };
        t.clamp(1, items.max(1))
    }
}

/// Result of a batch run: per-item outcomes in input order plus engine
/// telemetry for the bench pipeline.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One outcome per input item, in input order.
    pub outcomes: Vec<RebalanceOutcome>,
    /// Per-item solve wall time in nanoseconds, in input order.
    pub solve_nanos: Vec<u64>,
    /// Worker threads used.
    pub workers: usize,
    /// Items claimed from another worker's stripe.
    pub steals: u64,
    /// Threshold-ladder cache hits summed over workers.
    pub ladder_hits: u64,
    /// Threshold-ladder cache misses summed over workers.
    pub ladder_misses: u64,
}

/// Where a batch's instrumentation goes: a main lane for the batch
/// envelope span and batch totals, plus one lane per worker for that
/// worker's spans, counters and histograms.
///
/// A shared recorder (`&AtomicRecorder`, `&NoopRecorder`) fills every lane
/// with a copy of itself; `&mut TraceCollector` hands out its own main lane
/// and one exclusive [`ThreadTracer`](lrb_obs::ThreadTracer) lane per
/// worker, which caps the batch at the collector's worker count.
pub trait Lanes {
    /// The per-worker lane type.
    type Lane: Recorder + Send;

    /// Run `f` with the main lane and between one and `workers` worker
    /// lanes.
    fn with_lanes<T>(
        self,
        workers: usize,
        f: impl FnOnce(&Self::Lane, &mut [Self::Lane]) -> T,
    ) -> T;
}

impl<'a, R: Recorder + Sync> Lanes for &'a R {
    type Lane = &'a R;

    fn with_lanes<T>(self, workers: usize, f: impl FnOnce(&&'a R, &mut [&'a R]) -> T) -> T {
        f(&self, &mut vec![self; workers.max(1)])
    }
}

impl Lanes for &mut TraceCollector {
    type Lane = lrb_obs::ThreadTracer;

    fn with_lanes<T>(
        self,
        workers: usize,
        f: impl FnOnce(&Self::Lane, &mut [Self::Lane]) -> T,
    ) -> T {
        let (main, lanes) = self.lanes_mut();
        let k = workers.clamp(1, lanes.len());
        f(main, &mut lanes[..k])
    }
}

/// Solve every item with the default (uninstrumented) recorder.
pub fn solve_batch(items: &[BatchItem], solver: BatchSolver, cfg: &EngineConfig) -> BatchReport {
    solve_batch_recorded(items, solver, cfg, &NoopRecorder)
}

/// [`solve_batch`] with instrumentation. The main lane gets an
/// `engine.batch` span (payload = item count) and the batch totals; each
/// worker lane gets its scheduling-lane spans (worker, claim, queue-wait,
/// steal), the steal counter, queue depth at steal time, and per-item solve
/// latency. Timeline lanes ([`Recorder::TIMELINE`], i.e. a
/// [`TraceCollector`]) additionally get one `engine.solve` span per item
/// with the solver's phases nested inside. Outcomes are bit-identical to
/// [`solve_batch`]: instrumentation never changes answers.
pub fn solve_batch_recorded<L: Lanes>(
    items: &[BatchItem],
    solver: BatchSolver,
    cfg: &EngineConfig,
    lanes: L,
) -> BatchReport {
    run_fresh(items, solver, cfg, lanes, &NoopShim)
}

/// Solve a speed-scaled batch with the default (uninstrumented) recorder.
///
/// Same striping, stealing, scratch reuse, and input-order result slots as
/// [`solve_batch`] — the hetero path runs through the identical generic
/// runner, so its results are likewise **bit-identical for any thread
/// count** (asserted by the metamorphic suite).
pub fn solve_hetero_batch(
    items: &[HeteroBatchItem],
    solver: HeteroBatchSolver,
    cfg: &EngineConfig,
) -> BatchReport {
    solve_hetero_batch_recorded(items, solver, cfg, &NoopRecorder)
}

/// [`solve_hetero_batch`] with instrumentation, laid out across lanes as in
/// [`solve_batch_recorded`] (timeline lanes also get the solver's own
/// `hetero.*` spans).
pub fn solve_hetero_batch_recorded<L: Lanes>(
    items: &[HeteroBatchItem],
    solver: HeteroBatchSolver,
    cfg: &EngineConfig,
    lanes: L,
) -> BatchReport {
    run_fresh(items, solver, cfg, lanes, &NoopShim)
}

/// [`solve_batch`] under an explicit [`ScheduleShim`] — the entry point for
/// adversarial schedule exploration (`lrb-lint --schedules`). Results must
/// be bit-identical to [`solve_batch`] for *any* shim: outcomes depend only
/// on the item and land in input-order slots, never on claim order.
pub fn solve_batch_shimmed<S: ScheduleShim>(
    items: &[BatchItem],
    solver: BatchSolver,
    cfg: &EngineConfig,
    shim: &S,
) -> BatchReport {
    run_fresh(items, solver, cfg, &NoopRecorder, shim)
}

/// A one-shot batch: fresh scratches and an `engine.batch` envelope span
/// (payload = item count).
fn run_fresh<I: Sync, L: Lanes, S: ScheduleShim, P: ItemSolver<I>>(
    items: &[I],
    solver: P,
    cfg: &EngineConfig,
    lanes: L,
    shim: &S,
) -> BatchReport {
    let threads = cfg.resolved_threads(items.len());
    let mut scratches: Vec<Scratch> = (0..threads).map(|_| Scratch::new()).collect();
    lanes.with_lanes(threads, |main, lanes| {
        let envelope = (names::ENGINE_BATCH, items.len() as u64);
        run_batch(items, &mut scratches, envelope, main, lanes, shim, solver)
    })
}

/// Persistent streaming executor: [`solve_batch`] semantics, epoch after
/// epoch, with per-worker [`Scratch`]es that survive across epochs.
///
/// An online fleet feeds every farm's per-epoch solve through one of these
/// in lockstep: the warm threshold-ladder and profile buffers amortize
/// allocation and sorting across the whole stream, while per-epoch results
/// stay **bit-identical for any thread count** (and to [`solve_batch`])
/// because the scratch entry points never change answers, only speed.
#[derive(Debug)]
pub struct StreamEngine {
    solver: BatchSolver,
    threads: usize,
    scratches: Vec<Scratch>,
    epochs: u64,
}

impl StreamEngine {
    /// A streaming executor with `cfg.threads` persistent workers.
    pub fn new(solver: BatchSolver, cfg: &EngineConfig) -> Self {
        let threads = cfg.resolved_threads(usize::MAX);
        StreamEngine {
            solver,
            threads,
            scratches: (0..threads).map(|_| Scratch::new()).collect(),
            epochs: 0,
        }
    }

    /// Solve one epoch's batch with the default recorder.
    pub fn solve_epoch(&mut self, items: &[BatchItem]) -> BatchReport {
        self.solve_epoch_recorded(items, &NoopRecorder)
    }

    /// Solve one epoch's batch, instrumented as in [`solve_batch_recorded`]
    /// except that the main lane's envelope is an `engine.epoch` span
    /// (payload = 1-based epoch number). Ladder hit/miss telemetry in the
    /// returned report is the *delta* contributed by this epoch (warm
    /// scratches carry cache state across epochs).
    pub fn solve_epoch_recorded<L: Lanes>(&mut self, items: &[BatchItem], lanes: L) -> BatchReport {
        self.epochs += 1;
        let threads = self.threads.clamp(1, items.len().max(1));
        let solver = self.solver;
        let scratches = &mut self.scratches;
        let envelope = (names::ENGINE_EPOCH, self.epochs);
        lanes.with_lanes(threads, |main, lanes| {
            run_batch(items, scratches, envelope, main, lanes, &NoopShim, solver)
        })
    }

    /// The solver every epoch runs with.
    pub fn solver(&self) -> BatchSolver {
        self.solver
    }

    /// Persistent worker count.
    pub fn workers(&self) -> usize {
        self.threads
    }

    /// Epochs solved so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Cumulative threshold-ladder hits across all epochs and workers.
    pub fn ladder_hits(&self) -> u64 {
        self.scratches.iter().map(Scratch::ladder_hits).sum()
    }

    /// Cumulative threshold-ladder misses across all epochs and workers.
    pub fn ladder_misses(&self) -> u64 {
        self.scratches.iter().map(Scratch::ladder_misses).sum()
    }
}

/// How a batch runner solves one item of type `I` against a worker's
/// scratch, reporting the solver's own phases to `rec`.
trait ItemSolver<I>: Copy + Send + Sync {
    fn solve<R: Recorder>(self, item: &I, scratch: &mut Scratch, rec: &R) -> RebalanceOutcome;
}

/// Solve item `i` on a worker lane. Per-item detail (the `engine.solve`
/// span and the solver's phases inside it) goes only to timeline lanes, so
/// an aggregate recorder shared by every worker pays for no per-item
/// registry lookup.
fn solve_item<I, L: Recorder, P: ItemSolver<I>>(
    solver: P,
    items: &[I],
    i: usize,
    scratch: &mut Scratch,
    lane: &L,
) -> RebalanceOutcome {
    if L::TIMELINE {
        let _solve = lane.span_with(names::ENGINE_SOLVE, i as u64, false);
        solver.solve(&items[i], scratch, lane)
    } else {
        solver.solve(&items[i], scratch, &NoopRecorder)
    }
}

/// Shared batch runner: solve `items` on one worker per lane in `lanes`,
/// drawing from `scratches` (one per worker; `lanes.len() <=
/// scratches.len()`), under the `envelope` span `(name, payload)` on the
/// `main` lane. Ladder telemetry in the report is the delta accumulated by
/// this call, so warm scratches ([`StreamEngine`]) report per-epoch cache
/// traffic.
///
/// Lane `w` is handed `&mut`-exclusively to worker `w` exactly like its
/// [`Scratch`]; `shim` injects schedule perturbations, and `NoopShim`
/// compiles them away.
///
/// Generic over the item type and its [`ItemSolver`] so the base and
/// speed-scaled batch paths share one runner — striping, stealing, and
/// input-order slots are defined exactly once, and any thread-count
/// bit-identity argument covers both.
fn run_batch<I, L, S, P>(
    items: &[I],
    scratches: &mut [Scratch],
    envelope: (&'static str, u64),
    main: &L,
    lanes: &mut [L],
    shim: &S,
    solver: P,
) -> BatchReport
where
    I: Sync,
    L: Recorder + Send,
    S: ScheduleShim,
    P: ItemSolver<I>,
{
    let _envelope = main.span_with(envelope.0, envelope.1, false);
    let n = items.len();
    let threads = lanes.len();
    main.incr(names::ENGINE_ITEMS, n as u64);
    main.incr(names::ENGINE_WORKERS, threads as u64);
    debug_assert!(threads >= 1 && threads <= scratches.len());
    let before_hits: u64 = scratches.iter().map(Scratch::ladder_hits).sum();
    let before_misses: u64 = scratches.iter().map(Scratch::ladder_misses).sum();

    if threads <= 1 || n <= 1 {
        let scratch = &mut scratches[0];
        let lane = &lanes[0];
        let _worker = lane.span_with(names::ENGINE_WORKER, 0, true);
        let mut outcomes = Vec::with_capacity(n);
        let mut solve_nanos = Vec::with_capacity(n);
        for i in 0..n {
            // lint: allow(no-nondeterminism, clock feeds solve-latency telemetry only)
            let start = Instant::now();
            outcomes.push(solve_item(solver, items, i, scratch, lane));
            let nanos = (start.elapsed().as_nanos() as u64).max(1);
            lane.observe(names::ENGINE_SOLVE_NANOS, nanos);
            solve_nanos.push(nanos);
        }
        let ladder_hits = scratches.iter().map(Scratch::ladder_hits).sum::<u64>() - before_hits;
        let ladder_misses =
            scratches.iter().map(Scratch::ladder_misses).sum::<u64>() - before_misses;
        main.incr(names::ENGINE_LADDER_HITS, ladder_hits);
        main.incr(names::ENGINE_LADDER_MISSES, ladder_misses);
        return BatchReport {
            outcomes,
            solve_nanos,
            workers: 1,
            steals: 0,
            ladder_hits,
            ladder_misses,
        };
    }

    let queue = match if S::ACTIVE {
        shim.stripes(n, threads)
    } else {
        None
    } {
        Some(ends) => StealQueue::with_ends(n, threads, ends),
        None => StealQueue::new(n, threads),
    };
    let steals = AtomicU64::new(0);

    let mut slots: Vec<Option<(RebalanceOutcome, u64)>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = scratches[..threads]
            .iter_mut()
            .zip(lanes.iter_mut())
            .enumerate()
            .map(|(w, (scratch, lane))| {
                let queue = &queue;
                let steals = &steals;
                scope.spawn(move || {
                    let lane = &*lane;
                    let _worker = lane.span_with(names::ENGINE_WORKER, w as u64, true);
                    let mut local: Vec<(usize, RebalanceOutcome, u64)> = Vec::new();
                    loop {
                        if S::ACTIVE {
                            shim.yield_point(w, YieldPoint::BeforeClaim);
                        }
                        let own = if S::ACTIVE && shim.steal_first(w) {
                            None
                        } else {
                            let _claim = lane.span_with(names::ENGINE_CLAIM, w as u64, true);
                            queue.claim_own(w)
                        };
                        let i = match own {
                            Some(i) => i,
                            None => {
                                if S::ACTIVE {
                                    shim.yield_point(w, YieldPoint::BeforeSteal);
                                }
                                let stolen = {
                                    let _wait =
                                        lane.span_with(names::ENGINE_QUEUE_WAIT, w as u64, true);
                                    queue.steal(w)
                                };
                                match stolen {
                                    Some((i, depth)) => {
                                        steals.fetch_add(1, Ordering::Relaxed);
                                        lane.instant(names::ENGINE_STEAL_EVENT, depth as u64, true);
                                        lane.incr(names::ENGINE_STEALS, 1);
                                        lane.observe(names::ENGINE_QUEUE_DEPTH, depth as u64);
                                        i
                                    }
                                    None => {
                                        // A steal-first worker may still own
                                        // unclaimed items; drain them before
                                        // exiting so no index is orphaned.
                                        let _claim =
                                            lane.span_with(names::ENGINE_CLAIM, w as u64, true);
                                        match queue.claim_own(w) {
                                            Some(i) => i,
                                            None => break,
                                        }
                                    }
                                }
                            }
                        };
                        if S::ACTIVE {
                            shim.yield_point(w, YieldPoint::AfterClaim);
                        }
                        // lint: allow(no-nondeterminism, clock feeds solve-latency telemetry only)
                        let start = Instant::now();
                        let out = solve_item(solver, items, i, scratch, lane);
                        let nanos = (start.elapsed().as_nanos() as u64).max(1);
                        lane.observe(names::ENGINE_SOLVE_NANOS, nanos);
                        local.push((i, out, nanos));
                        if S::ACTIVE {
                            shim.yield_point(w, YieldPoint::AfterSolve);
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // lint: allow(no-panic-core, a worker panic is already fatal; re-raising on join is the only honest exit)
            for (i, out, nanos) in handle.join().expect("engine worker panicked") {
                slots[i] = Some((out, nanos));
            }
        }
    });

    let ladder_hits = scratches.iter().map(Scratch::ladder_hits).sum::<u64>() - before_hits;
    let ladder_misses = scratches.iter().map(Scratch::ladder_misses).sum::<u64>() - before_misses;
    main.incr(names::ENGINE_LADDER_HITS, ladder_hits);
    main.incr(names::ENGINE_LADDER_MISSES, ladder_misses);

    let mut outcomes = Vec::with_capacity(n);
    let mut solve_nanos = Vec::with_capacity(n);
    for slot in slots {
        // lint: allow(no-panic-core, the workers jointly cover every index before join returns)
        let (out, nanos) = slot.expect("every item solved");
        outcomes.push(out);
        solve_nanos.push(nanos);
    }
    BatchReport {
        outcomes,
        solve_nanos,
        workers: threads,
        steals: steals.into_inner(),
        ladder_hits,
        ladder_misses,
    }
}

/// Solve one item against a worker's scratch. Errors degrade to "no moves"
/// (the initial assignment), mirroring `lrb-sim`'s policy fallback, so a
/// pathological item never poisons its batch. `rec` flows into the core
/// solvers' recorded entry points, which are bit-identical to the
/// unrecorded ones — instrumentation never changes answers.
impl ItemSolver<BatchItem> for BatchSolver {
    fn solve<R: Recorder>(
        self,
        item: &BatchItem,
        scratch: &mut Scratch,
        rec: &R,
    ) -> RebalanceOutcome {
        let inst = &item.instance;
        let unchanged = || RebalanceOutcome::unchanged(inst);
        match (self, item.budget) {
            (BatchSolver::Greedy, budget) => {
                let k = match budget {
                    Budget::Moves(k) => k,
                    Budget::Cost(b) => b as usize,
                };
                greedy::rebalance_scratch_recorded(
                    inst,
                    k,
                    greedy::ReinsertOrder::Descending,
                    rec,
                    scratch,
                )
                .unwrap_or_else(|_| unchanged())
            }
            (BatchSolver::MPartition, Budget::Moves(k)) => mpartition::rebalance_scratch_recorded(
                inst,
                k,
                mpartition::ThresholdSearch::default(),
                rec,
                scratch,
            )
            .map(|run| run.outcome)
            .unwrap_or_else(|_| unchanged()),
            (BatchSolver::MPartition, Budget::Cost(b))
            | (BatchSolver::CostPartition, Budget::Cost(b)) => {
                cost_partition::rebalance_scratch_recorded(inst, b, rec, scratch)
                    .map(|run| run.outcome)
                    .unwrap_or_else(|_| unchanged())
            }
            (BatchSolver::CostPartition, Budget::Moves(k)) => {
                cost_partition::rebalance_scratch_recorded(inst, k as u64, rec, scratch)
                    .map(|run| run.outcome)
                    .unwrap_or_else(|_| unchanged())
            }
        }
    }
}

/// Solve one speed-scaled item against a worker's scratch. Errors (e.g. a
/// speeds/instance length mismatch) degrade to "no moves", as for
/// [`BatchSolver`], so a pathological item never poisons its batch.
impl ItemSolver<HeteroBatchItem> for HeteroBatchSolver {
    fn solve<R: Recorder>(
        self,
        item: &HeteroBatchItem,
        scratch: &mut Scratch,
        rec: &R,
    ) -> RebalanceOutcome {
        let inst = &item.instance;
        match self {
            HeteroBatchSolver::Greedy => hetero::rebalance_greedy_scratch_recorded(
                inst,
                &item.speeds,
                item.moves,
                rec,
                scratch,
            )
            .map(|run| run.outcome)
            .unwrap_or_else(|_| RebalanceOutcome::unchanged(inst)),
            HeteroBatchSolver::MPartition => hetero::rebalance_mpartition_scratch_recorded(
                inst,
                &item.speeds,
                item.moves,
                rec,
                scratch,
            )
            .map(|run| run.outcome)
            .unwrap_or_else(|_| RebalanceOutcome::unchanged(inst)),
        }
    }
}

/// Striped work queue with stealing.
///
/// Item indices `0..n` are split into `workers` contiguous stripes. Each
/// stripe has an atomic head; claiming is one `fetch_add`. A claim whose
/// index lands past the stripe end is a lost race — heads may overshoot
/// their end by at most the number of concurrent claimants, which the
/// remaining-count arithmetic saturates away.
struct StealQueue {
    heads: Vec<AtomicUsize>,
    ends: Vec<usize>,
}

impl StealQueue {
    fn new(n: usize, workers: usize) -> Self {
        let mut heads = Vec::with_capacity(workers);
        let mut ends = Vec::with_capacity(workers);
        // Balanced partition: the first `n % workers` stripes get one extra.
        let base = n / workers;
        let extra = n % workers;
        let mut start = 0;
        for w in 0..workers {
            let len = base + usize::from(w < extra);
            heads.push(AtomicUsize::new(start));
            start += len;
            ends.push(start);
        }
        debug_assert_eq!(start, n);
        StealQueue { heads, ends }
    }

    /// A queue with an explicit stripe layout (`ends[w]` is the exclusive
    /// end of stripe `w`; stripe `w` starts where `w - 1` ends). Used by
    /// schedule exploration to force pathological layouts; an invalid
    /// layout falls back to the balanced default.
    fn with_ends(n: usize, workers: usize, ends: Vec<usize>) -> Self {
        let valid = ends.len() == workers
            && ends.last() == Some(&n)
            && ends.windows(2).all(|w| w[0] <= w[1])
            && ends.first().is_none_or(|&e| e <= n);
        if !valid {
            debug_assert!(false, "invalid stripe layout {ends:?} for n={n}");
            return StealQueue::new(n, workers);
        }
        let heads = (0..workers)
            .map(|w| AtomicUsize::new(if w == 0 { 0 } else { ends[w - 1] }))
            .collect();
        StealQueue { heads, ends }
    }

    /// Claim the next item of worker `w`'s own stripe.
    fn claim_own(&self, w: usize) -> Option<usize> {
        let i = self.heads[w].fetch_add(1, Ordering::Relaxed);
        (i < self.ends[w]).then_some(i)
    }

    /// Steal from the victim with the most remaining items. Returns the
    /// claimed index and the victim's remaining count *before* the steal
    /// (the queue depth observed). Retries while any stripe looks
    /// non-empty; `None` once all work is claimed.
    fn steal(&self, thief: usize) -> Option<(usize, usize)> {
        loop {
            let mut best: Option<(usize, usize)> = None; // (victim, remaining)
            for v in 0..self.heads.len() {
                if v == thief {
                    continue;
                }
                let head = self.heads[v].load(Ordering::Relaxed);
                let remaining = self.ends[v].saturating_sub(head);
                if remaining > 0 && best.is_none_or(|(_, r)| remaining > r) {
                    best = Some((v, remaining));
                }
            }
            let (victim, remaining) = best?;
            let i = self.heads[victim].fetch_add(1, Ordering::Relaxed);
            if i < self.ends[victim] {
                return Some((i, remaining));
            }
            // Lost the race for that stripe's tail; rescan.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lrb_instances::GeneratorConfig;

    fn batch(n_items: usize, seed: u64) -> Vec<BatchItem> {
        (0..n_items)
            .map(|i| {
                let cfg = GeneratorConfig::uniform(24, 4);
                BatchItem {
                    instance: cfg.generate(seed ^ (i as u64).wrapping_mul(0x9E37)),
                    budget: Budget::Moves(3 + i % 5),
                }
            })
            .collect()
    }

    /// Mixed-budget ("policy-generic") batches: one epoch carrying both
    /// move-billed and cost-billed items — as an online fleet running
    /// different migration policies produces — must match the sequential
    /// per-item solvers exactly and stay thread-count invariant.
    #[test]
    fn mixed_budget_batches_are_policy_generic_and_thread_invariant() {
        let items: Vec<BatchItem> = (0..24)
            .map(|i| {
                let cfg = GeneratorConfig::uniform(18, 3);
                let instance = cfg.generate(100 + i as u64);
                let budget = if i % 2 == 0 {
                    Budget::Moves(2 + i % 4)
                } else {
                    Budget::Cost(3 + (i as u64) % 7)
                };
                BatchItem { instance, budget }
            })
            .collect();
        let seq: Vec<RebalanceOutcome> = items
            .iter()
            .map(|item| match item.budget {
                Budget::Moves(k) => mpartition::rebalance(&item.instance, k).unwrap().outcome,
                Budget::Cost(b) => {
                    cost_partition::rebalance(&item.instance, b)
                        .unwrap()
                        .outcome
                }
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let mut engine = StreamEngine::new(
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
            );
            // Two epochs over the same items: warm scratches never change
            // answers either.
            for epoch in 0..2 {
                let report = engine.solve_epoch(&items);
                for (i, (a, b)) in seq.iter().zip(&report.outcomes).enumerate() {
                    assert_eq!(a, b, "threads {threads} epoch {epoch} item {i}");
                }
            }
        }
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let items = batch(40, 7);
        for solver in [
            BatchSolver::Greedy,
            BatchSolver::MPartition,
            BatchSolver::CostPartition,
        ] {
            let seq = solve_batch(&items, solver, &EngineConfig::with_threads(1));
            for threads in [2, 4, 8] {
                let par = solve_batch(&items, solver, &EngineConfig::with_threads(threads));
                assert_eq!(par.outcomes.len(), seq.outcomes.len());
                for (i, (a, b)) in seq.outcomes.iter().zip(&par.outcomes).enumerate() {
                    assert_eq!(
                        a.assignment(),
                        b.assignment(),
                        "{solver:?} item {i} at {threads} threads"
                    );
                    assert_eq!(a.makespan(), b.makespan());
                }
            }
        }
    }

    #[test]
    fn hetero_results_are_bit_identical_across_thread_counts() {
        let items: Vec<HeteroBatchItem> = batch(30, 19)
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let m = item.instance.num_procs();
                let speeds: Vec<u64> = (0..m).map(|p| 1 + ((p + i) % 3) as u64).collect();
                HeteroBatchItem {
                    moves: 3 + i % 5,
                    speeds: Speeds::new(speeds).unwrap(),
                    instance: item.instance,
                }
            })
            .collect();
        for solver in [HeteroBatchSolver::Greedy, HeteroBatchSolver::MPartition] {
            let seq = solve_hetero_batch(&items, solver, &EngineConfig::with_threads(1));
            for (item, out) in items.iter().zip(&seq.outcomes) {
                assert!(out.moves() <= item.moves, "{solver:?}");
            }
            for threads in [2, 4, 8] {
                let par = solve_hetero_batch(&items, solver, &EngineConfig::with_threads(threads));
                assert_eq!(
                    par.outcomes, seq.outcomes,
                    "{solver:?} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn outcomes_respect_budgets() {
        let items = batch(20, 99);
        let report = solve_batch(&items, BatchSolver::MPartition, &EngineConfig::default());
        for (item, out) in items.iter().zip(&report.outcomes) {
            match item.budget {
                Budget::Moves(k) => assert!(out.moves() <= k),
                Budget::Cost(b) => assert!(out.cost() <= b),
            }
            assert!(out.makespan() <= item.instance.initial_makespan());
        }
        assert_eq!(report.solve_nanos.len(), items.len());
        assert!(report.solve_nanos.iter().all(|&ns| ns > 0));
    }

    #[test]
    fn ladder_cache_hits_on_same_multiset_batches() {
        // One multiset under many placements: every solve after the first
        // (per worker) must hit the ladder cache.
        let cfg = GeneratorConfig::uniform(24, 4);
        let base = cfg.generate(5);
        let m = base.num_procs();
        let items: Vec<BatchItem> = (0..16)
            .map(|v| {
                let placement: Vec<usize> = (0..base.num_jobs()).map(|j| (j * 7 + v) % m).collect();
                BatchItem {
                    instance: Instance::new(base.jobs().to_vec(), placement, m).unwrap(),
                    budget: Budget::Moves(4),
                }
            })
            .collect();
        let report = solve_batch(
            &items,
            BatchSolver::MPartition,
            &EngineConfig::with_threads(1),
        );
        assert_eq!(report.ladder_misses, 1);
        assert_eq!(report.ladder_hits, 15);
    }

    #[test]
    fn empty_batch() {
        let report = solve_batch(&[], BatchSolver::MPartition, &EngineConfig::default());
        assert!(report.outcomes.is_empty());
        assert_eq!(report.steals, 0);
    }

    #[test]
    fn engine_emits_counters_when_recorded() {
        let rec = lrb_obs::AtomicRecorder::new();
        let items = batch(10, 3);
        let report = solve_batch_recorded(
            &items,
            BatchSolver::MPartition,
            &EngineConfig::with_threads(2),
            &rec,
        );
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::ENGINE_ITEMS), Some(10));
        assert_eq!(snap.counter(names::ENGINE_WORKERS), Some(2));
        assert_eq!(snap.histogram(names::ENGINE_SOLVE_NANOS).unwrap().count, 10);
        assert_eq!(
            snap.counter(names::ENGINE_LADDER_MISSES).unwrap_or(0),
            report.ladder_misses
        );
    }

    #[test]
    fn recorded_batches_keep_their_metric_name_set() {
        // A shared recorder sits in every worker lane, but only batch totals
        // and scheduling counters reach it: no scheduling-lane span,
        // per-item solve span or solver phase becomes a phase (each would
        // add a registry lookup per item to recorded runs).
        for seed in 0..4 {
            let rec = lrb_obs::AtomicRecorder::new();
            let cfg = EngineConfig::with_threads(2);
            let report =
                solve_batch_recorded(&batch(40, seed), BatchSolver::MPartition, &cfg, &rec);
            let snap = rec.snapshot();
            let names_of = |v: Vec<&str>| v.join(" ");
            // Steal telemetry exists only when a steal happened.
            let (steals, depth) = if report.steals > 0 {
                (" engine.steals", "engine.queue_depth ")
            } else {
                ("", "")
            };
            assert_eq!(
                names_of(snap.counters.iter().map(|c| c.name.as_str()).collect()),
                format!(
                    "engine.items engine.ladder_hits engine.ladder_misses{steals} engine.workers"
                )
            );
            assert_eq!(
                names_of(snap.histograms.iter().map(|h| h.name.as_str()).collect()),
                format!("{depth}engine.solve_nanos")
            );
            assert_eq!(
                names_of(snap.phases.iter().map(|p| p.name.as_str()).collect()),
                names::ENGINE_BATCH
            );
        }
    }

    #[test]
    fn stream_engine_matches_solve_batch_each_epoch_at_any_thread_count() {
        let epochs: Vec<Vec<BatchItem>> = (0..4).map(|e| batch(10 + e, 31 + e as u64)).collect();
        let reference: Vec<_> = epochs
            .iter()
            .map(|items| {
                solve_batch(
                    items,
                    BatchSolver::MPartition,
                    &EngineConfig::with_threads(1),
                )
            })
            .collect();
        for threads in [1, 2, 4, 8] {
            let mut stream = StreamEngine::new(
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
            );
            for (items, want) in epochs.iter().zip(&reference) {
                let got = stream.solve_epoch(items);
                assert_eq!(got.outcomes, want.outcomes, "{threads} threads");
            }
            assert_eq!(stream.epochs(), epochs.len() as u64);
        }
    }

    #[test]
    fn stream_engine_keeps_ladder_warm_across_epochs() {
        // The same single-farm multiset arrives every epoch (placements
        // drift); after the first epoch every solve must hit the warm ladder.
        let cfg = GeneratorConfig::uniform(24, 4);
        let base = cfg.generate(5);
        let m = base.num_procs();
        let mut stream = StreamEngine::new(BatchSolver::MPartition, &EngineConfig::with_threads(1));
        for epoch in 0..5 {
            let placement: Vec<usize> = (0..base.num_jobs()).map(|j| (j + epoch) % m).collect();
            let items = [BatchItem {
                instance: Instance::new(base.jobs().to_vec(), placement, m).unwrap(),
                budget: Budget::Moves(4),
            }];
            let report = stream.solve_epoch(&items);
            if epoch == 0 {
                assert_eq!((report.ladder_hits, report.ladder_misses), (0, 1));
            } else {
                assert_eq!((report.ladder_hits, report.ladder_misses), (1, 0));
            }
        }
        assert_eq!((stream.ladder_hits(), stream.ladder_misses()), (4, 1));
    }

    #[test]
    fn stream_engine_handles_empty_and_tiny_epochs() {
        let mut stream = StreamEngine::new(BatchSolver::MPartition, &EngineConfig::with_threads(4));
        assert_eq!(stream.workers(), 4);
        let report = stream.solve_epoch(&[]);
        assert!(report.outcomes.is_empty());
        let items = batch(1, 9);
        let report = stream.solve_epoch(&items);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.workers, 1); // clamped to the epoch's size
    }

    #[test]
    fn traced_runs_match_untraced_outcomes() {
        let items = batch(24, 13);
        for threads in [1, 4] {
            let plain = solve_batch(
                &items,
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
            );
            let mut collector = TraceCollector::new(threads);
            let traced = solve_batch_recorded(
                &items,
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
                &mut collector,
            );
            assert_eq!(traced.outcomes, plain.outcomes, "{threads} threads");
            let trace = collector.finish("test", 13, threads, "m-partition");
            // One batch span, one worker span per worker, one solve span
            // per item with the solver's phases nested inside.
            assert_eq!(trace.events_named(names::ENGINE_BATCH).count(), 1);
            assert_eq!(
                trace.events_named(names::ENGINE_WORKER).count(),
                traced.workers
            );
            assert_eq!(trace.events_named(names::ENGINE_SOLVE).count(), items.len());
            assert!(
                trace.events_named(names::MPARTITION_SEARCH).count() >= items.len(),
                "solver phases must reach timeline lanes"
            );
        }
    }

    #[test]
    fn trace_determinism_hash_is_stable_across_reruns_and_thread_counts() {
        let items = batch(32, 21);
        let hash_at = |threads: usize| {
            let mut collector = TraceCollector::new(threads);
            solve_batch_recorded(
                &items,
                BatchSolver::MPartition,
                &EngineConfig::with_threads(threads),
                &mut collector,
            );
            collector
                .finish("test", 21, threads, "m-partition")
                .determinism_hash()
        };
        let h1 = hash_at(1);
        assert_eq!(h1, hash_at(1), "rerun at 1 thread");
        assert_eq!(h1, hash_at(2), "2 threads");
        assert_eq!(h1, hash_at(4), "4 threads");
        // A different workload must hash differently.
        let other = batch(31, 21);
        let mut collector = TraceCollector::new(1);
        solve_batch_recorded(
            &other,
            BatchSolver::MPartition,
            &EngineConfig::with_threads(1),
            &mut collector,
        );
        assert_ne!(
            h1,
            collector
                .finish("test", 21, 1, "m-partition")
                .determinism_hash()
        );
    }

    #[test]
    fn trace_attributes_worker_time_to_named_spans() {
        let items = batch(48, 17);
        let mut collector = TraceCollector::new(4);
        solve_batch_recorded(
            &items,
            BatchSolver::MPartition,
            &EngineConfig::with_threads(4),
            &mut collector,
        );
        let trace = collector.finish("test", 17, 4, "m-partition");
        let frac = trace.attributed_fraction(
            names::ENGINE_WORKER,
            &[
                names::ENGINE_CLAIM,
                names::ENGINE_QUEUE_WAIT,
                names::ENGINE_SOLVE,
            ],
        );
        assert!(
            frac >= 0.95,
            "claim/queue-wait/solve spans cover only {:.1}% of worker wall time",
            frac * 100.0
        );
    }

    #[test]
    fn stream_engine_traced_epochs_match_and_are_numbered() {
        let epochs: Vec<Vec<BatchItem>> = (0..3).map(|e| batch(8, 41 + e as u64)).collect();
        let mut plain = StreamEngine::new(BatchSolver::MPartition, &EngineConfig::with_threads(2));
        let mut traced = StreamEngine::new(BatchSolver::MPartition, &EngineConfig::with_threads(2));
        let mut collector = TraceCollector::new(2);
        for items in &epochs {
            let want = plain.solve_epoch(items);
            let got = traced.solve_epoch_recorded(items, &mut collector);
            assert_eq!(got.outcomes, want.outcomes);
        }
        let trace = collector.finish("test", 41, 2, "m-partition");
        let numbers: Vec<u64> = trace
            .events_named(names::ENGINE_EPOCH)
            .map(|e| e.v)
            .collect();
        assert_eq!(numbers, vec![1, 2, 3]);
    }

    #[test]
    fn adversarial_schedules_preserve_bit_identity() {
        use crate::schedule::AdversarialShim;
        let items = batch(24, 11);
        for solver in [BatchSolver::Greedy, BatchSolver::MPartition] {
            let seq = solve_batch(&items, solver, &EngineConfig::with_threads(1));
            for seed in 0..3 {
                let shim = AdversarialShim::full(seed);
                let adv =
                    solve_batch_shimmed(&items, solver, &EngineConfig::with_threads(3), &shim);
                assert_eq!(adv.outcomes, seq.outcomes, "{solver:?} seed {seed}");
            }
        }
    }

    #[test]
    fn steal_storm_forces_steals() {
        use crate::schedule::AdversarialShim;
        let items = batch(32, 5);
        let shim = AdversarialShim::new(1, true, true, false);
        let rep = solve_batch_shimmed(
            &items,
            BatchSolver::MPartition,
            &EngineConfig::with_threads(4),
            &shim,
        );
        assert_eq!(rep.outcomes.len(), items.len());
        assert!(rep.steals > 0, "storm mode must exercise the steal path");
    }

    #[test]
    fn custom_stripe_layouts_hand_out_every_index_exactly_once() {
        let q = StealQueue::with_ends(10, 3, vec![1, 2, 10]);
        let mut seen = [false; 10];
        for w in [0, 1] {
            while let Some(i) = q.claim_own(w) {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        while let Some((i, _)) = q.steal(0) {
            assert!(!seen[i]);
            seen[i] = true;
        }
        while let Some(i) = q.claim_own(2) {
            assert!(!seen[i]);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn steal_queue_hands_out_every_index_exactly_once() {
        let q = StealQueue::new(13, 4);
        let mut seen = [false; 13];
        // Worker 0 drains everything: its own stripe, then steals.
        loop {
            let i = match q.claim_own(0) {
                Some(i) => i,
                None => match q.steal(0) {
                    Some((i, depth)) => {
                        assert!(depth > 0);
                        i
                    }
                    None => break,
                },
            };
            assert!(!seen[i], "index {i} claimed twice");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn steal_prefers_fullest_victim() {
        let q = StealQueue::new(12, 3); // stripes: 0..4, 4..8, 8..12
                                        // Drain worker 1's stripe fully and half of worker 2's.
        for _ in 0..4 {
            q.claim_own(1);
        }
        for _ in 0..2 {
            q.claim_own(2);
        }
        // Worker 1 steals: victim 0 has 4 remaining, victim 2 has 2.
        let (i, depth) = q.steal(1).unwrap();
        assert_eq!(depth, 4);
        assert!(i < 4, "stole from stripe 0, got {i}");
    }
}

//! Uniform (speed-scaled) machines: the load rebalancing problem when
//! processors run at different integer speeds.
//!
//! Maack (arXiv:2209.00565) shows migration-bounded balancing generalizes
//! from identical to *uniform* machines: processor `p` with speed `v_p`
//! finishes raw load `L_p` in `L_p / v_p` time. This module carries that
//! generalization for the paper's GREEDY and M-PARTITION:
//!
//! * [`Speeds`] — validated integer per-processor speeds.
//! * [`scaled_load`] — **the one place** ceil-division finishing-time
//!   semantics are defined; every reported integral makespan goes through it.
//! * [`cmp_scaled`] — exact rational comparison `a/va` vs `b/vb` by
//!   cross-multiplication in `u128`, so orderings never round. All solver
//!   decisions use this, which buys two structural properties for free:
//!   uniform speed scaling `v → c·v` cannot change any decision, and when
//!   all speeds are equal every comparison degenerates to the raw-load
//!   comparison the identical-machine solvers make — the basis of the
//!   bit-identity guarantee below.
//! * [`rebalance_greedy`] — GREEDY with removal ordered by scaled load and
//!   reinsertion by scaled finishing time. With all speeds equal it is
//!   **bit-identical** to [`crate::greedy::rebalance`] (same assignment,
//!   not just the same makespan); `tests/metamorphic_hetero.rs` enforces it.
//! * [`rebalance_mpartition`] — the threshold ladder generalized to rational
//!   thresholds `x / v`: at each candidate, every processor gets the raw
//!   capacity `⌊x·v_q / v⌋` (scale-invariant by construction), overfull
//!   processors shed largest-first, and shed jobs are placed by scaled
//!   finishing time ([`partition_at_threshold`] is the single-threshold
//!   planner, the PARTITION analog). With all speeds equal it *delegates* to
//!   [`crate::mpartition::rebalance`], keeping bit-identity trivially.

use std::cmp::{Ordering, Reverse};

use lrb_obs::{names, NoopRecorder, Recorder};

use crate::error::{Error, Result};
use crate::model::{Assignment, Instance, ProcId, Size};
use crate::mpartition;
use crate::outcome::RebalanceOutcome;
use crate::scratch::Scratch;

/// Validated per-processor speeds: one strictly positive integer per
/// processor. Speed `1` everywhere recovers the paper's identical-machine
/// model exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Speeds {
    speeds: Vec<u64>,
}

impl Speeds {
    /// Wrap a speed vector, rejecting empty vectors and zero speeds.
    pub fn new(speeds: Vec<u64>) -> Result<Self> {
        if speeds.is_empty() {
            return Err(Error::NoProcessors);
        }
        if let Some(p) = speeds.iter().position(|&v| v == 0) {
            return Err(Error::ZeroSpeed { proc: p });
        }
        Ok(Self { speeds })
    }

    /// `m` processors all running at speed `v`.
    pub fn uniform(m: usize, v: u64) -> Result<Self> {
        Self::new(vec![v; m])
    }

    /// `m` processors at speed 1 — the identical-machine model.
    pub fn unit(m: usize) -> Result<Self> {
        Self::uniform(m, 1)
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// True iff there are no processors (unreachable for validated values).
    pub fn is_empty(&self) -> bool {
        self.speeds.is_empty()
    }

    /// Speed of processor `p`.
    pub fn get(&self, p: ProcId) -> u64 {
        self.speeds[p]
    }

    /// All speeds, indexed by processor.
    pub fn as_slice(&self) -> &[u64] {
        &self.speeds
    }

    /// True iff every processor runs at the same speed — the case where the
    /// speed-scaled solvers are bit-identical to the identical-machine ones.
    pub fn all_equal(&self) -> bool {
        self.speeds.windows(2).all(|w| w[0] == w[1])
    }

    /// Sum of all speeds (the denominator of the average-finishing-time
    /// lower bound), saturating.
    pub fn total(&self) -> u64 {
        self.speeds
            .iter()
            .fold(0u64, |acc, &v| acc.saturating_add(v))
    }

    /// Check that this speed vector matches `inst`'s processor count.
    pub fn matches(&self, inst: &Instance) -> Result<()> {
        if self.speeds.len() != inst.num_procs() {
            return Err(Error::SpeedsLength {
                expected: inst.num_procs(),
                got: self.speeds.len(),
            });
        }
        Ok(())
    }
}

/// The single definition of speed-scaled load: a processor with raw load
/// `load` and speed `speed` finishes after `⌈load / speed⌉` integral time
/// units. Every integral scaled makespan in the workspace is derived from
/// this function.
#[inline]
pub fn scaled_load(load: Size, speed: u64) -> Size {
    // Validated `Speeds` never contain zero; `max(1)` keeps the raw helper
    // total instead of dividing by zero on unvalidated input.
    load.div_ceil(speed.max(1))
}

/// Exact comparison of the rationals `a/va` and `b/vb` by
/// cross-multiplication, widened to `u128` so `u64 × u64` cannot overflow.
/// Solver *decisions* use this (never [`scaled_load`]), so no ordering is
/// ever distorted by ceil rounding.
#[inline]
pub fn cmp_scaled(a: Size, va: u64, b: Size, vb: u64) -> Ordering {
    (u128::from(a) * u128::from(vb)).cmp(&(u128::from(b) * u128::from(va)))
}

/// Integral speed-scaled makespan of a raw load vector.
pub fn scaled_makespan_of(loads: &[Size], speeds: &Speeds) -> Size {
    loads
        .iter()
        .zip(speeds.as_slice())
        .map(|(&l, &v)| scaled_load(l, v))
        .max()
        .unwrap_or(0)
}

/// Integral speed-scaled makespan of `assignment` on `inst`.
pub fn scaled_makespan(inst: &Instance, speeds: &Speeds, assignment: &[ProcId]) -> Result<Size> {
    speeds.matches(inst)?;
    Ok(scaled_makespan_of(&inst.loads_of(assignment)?, speeds))
}

/// Budget-free lower bound on the scaled makespan of *any* assignment:
/// `max(⌈total / Σv⌉, ⌈s_max / v_max⌉)`. If every processor finishes by `T`
/// then `L_p ≤ T·v_p`, so `total ≤ T·Σv`; and the largest job must run
/// somewhere, at best on the fastest processor.
pub fn scaled_lower_bound(inst: &Instance, speeds: &Speeds) -> Size {
    let by_total = inst.total_size().div_ceil(speeds.total().max(1));
    let v_max = speeds.as_slice().iter().copied().max().unwrap_or(1);
    by_total.max(scaled_load(inst.max_job_size(), v_max))
}

/// The exact (un-ceiled) maximum of `L_p / v_p` as a `(load, speed)`
/// representative, used for scale-invariant quality comparisons.
fn rational_makespan(loads: &[Size], speeds: &Speeds) -> (Size, u64) {
    let mut best = (0, 1);
    for (&l, &v) in loads.iter().zip(speeds.as_slice()) {
        if cmp_scaled(l, v, best.0, best.1) == Ordering::Greater {
            best = (l, v);
        }
    }
    best
}

/// Result of a speed-scaled solver run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeteroRun {
    /// The rebalanced assignment with its raw (speed-blind) quantities.
    pub outcome: RebalanceOutcome,
    /// Integral speed-scaled makespan of the final assignment, via
    /// [`scaled_load`].
    pub scaled_makespan: Size,
}

/// Result of a speed-scaled M-PARTITION run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeteroMPartitionRun {
    /// The rebalanced assignment (clamped to the initial assignment when
    /// that was already at least as good in scaled terms).
    pub outcome: RebalanceOutcome,
    /// Integral speed-scaled makespan of the final assignment.
    pub scaled_makespan: Size,
    /// The accepted threshold as an exact rational `numerator / speed`.
    pub threshold: (Size, u64),
    /// How many candidate thresholds were probed.
    pub probes: usize,
}

/// Speed-scaled GREEDY with at most `k` moves.
///
/// Phase 1 removes, `k` times, the largest job from the processor with the
/// largest *scaled* load (ties: larger raw load, then larger index — exactly
/// the base solver's max-heap order when speeds are equal). Phase 2 reinserts
/// the removed jobs largest-first, each on the processor minimizing its
/// scaled *finishing time* (ties: smaller raw load, then smaller index —
/// exactly the base min-heap order when speeds are equal).
///
/// ```
/// use lrb_core::hetero::{rebalance_greedy, Speeds};
/// use lrb_core::model::Instance;
///
/// // Everything on the slow processor; two moves allowed.
/// let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
/// let speeds = Speeds::new(vec![1, 3]).unwrap();
/// let run = rebalance_greedy(&inst, &speeds, 2).unwrap();
/// assert!(run.outcome.moves() <= 2);
/// assert!(run.scaled_makespan <= inst.initial_makespan());
/// ```
pub fn rebalance_greedy(inst: &Instance, speeds: &Speeds, k: usize) -> Result<HeteroRun> {
    rebalance_greedy_scratch_recorded(inst, speeds, k, &NoopRecorder, &mut Scratch::new())
}

/// [`rebalance_greedy`] against a reusable [`Scratch`] (identical output,
/// no steady-state allocation beyond the returned assignment), with
/// instrumentation: times the run (`hetero.greedy`) and counts
/// cross-processor moves (`hetero.moves`).
pub fn rebalance_greedy_scratch_recorded<R: Recorder>(
    inst: &Instance,
    speeds: &Speeds,
    k: usize,
    rec: &R,
    scratch: &mut Scratch,
) -> Result<HeteroRun> {
    speeds.matches(inst)?;
    let _t = rec.time(names::HETERO_GREEDY);
    let s = &mut scratch.hetero;
    let m = inst.num_procs();
    let mut assignment = inst.initial().clone();

    // Phase 1: removal. Live loads plus per-processor job stacks sorted
    // ascending by size (stable), so the largest job pops from the back and
    // equal sizes pop in descending job-id order — byte-for-byte the base
    // removal order.
    s.loads.clear();
    s.loads.extend_from_slice(inst.initial_loads());
    s.per_proc.truncate(m);
    s.per_proc.resize_with(m, Vec::new);
    for jobs in &mut s.per_proc {
        jobs.clear();
    }
    for (j, &p) in inst.initial().iter().enumerate() {
        s.per_proc[p].push(j);
    }
    for jobs in &mut s.per_proc {
        jobs.sort_by_key(|&j| inst.size(j));
    }

    s.removed.clear();
    for _ in 0..k {
        // Max scaled load; ties broken by (raw load, index) descending so an
        // all-equal-speed run picks exactly the base max-heap's (load, proc).
        let mut p = 0;
        for q in 1..m {
            match cmp_scaled(s.loads[q], speeds.get(q), s.loads[p], speeds.get(p)) {
                Ordering::Greater => p = q,
                Ordering::Equal if (s.loads[q], q) > (s.loads[p], p) => p = q,
                _ => {}
            }
        }
        if s.loads[p] == 0 {
            // The max scaled load is zero, so every processor is empty.
            break;
        }
        // A nonzero load implies a job on the stack; treat a mismatch (an
        // internal-invariant breach, not user input) as "nothing to remove"
        // rather than panicking.
        let Some(j) = s.per_proc[p].pop() else { break };
        s.loads[p] = s.loads[p].saturating_sub(inst.size(j));
        s.removed.push(j);
    }

    // Phase 2: reinsert largest-first (stable sort keeps removal order among
    // equal sizes, as in the base solver), each job on the processor with
    // the minimum scaled finishing time.
    s.order_buf.clear();
    s.order_buf.extend_from_slice(&s.removed);
    s.order_buf.sort_by_key(|&j| Reverse(inst.size(j)));
    for &j in &s.order_buf {
        let size = inst.size(j);
        let mut best = 0;
        let mut best_load = s.loads[0].saturating_add(size);
        for q in 1..m {
            let new_load = s.loads[q].saturating_add(size);
            match cmp_scaled(new_load, speeds.get(q), best_load, speeds.get(best)) {
                Ordering::Less => {
                    best = q;
                    best_load = new_load;
                }
                Ordering::Equal if (s.loads[q], q) < (s.loads[best], best) => {
                    best = q;
                    best_load = new_load;
                }
                _ => {}
            }
        }
        assignment[j] = best;
        s.loads[best] = best_load;
        if best != inst.initial()[j] {
            rec.incr(names::HETERO_MOVES, 1);
        }
    }

    let scaled = scaled_makespan_of(&s.loads, speeds);
    let outcome = RebalanceOutcome::from_assignment(inst, assignment)?;
    Ok(HeteroRun {
        outcome,
        scaled_makespan: scaled,
    })
}

/// The PARTITION analog at a fixed rational threshold `x / v`: every
/// processor `q` gets raw capacity `⌊x·v_q / v⌋` (so its scaled load stays
/// ≤ the threshold), overfull processors shed largest-first, and shed jobs
/// are placed largest-first on the fitting processor with the minimum scaled
/// finishing time. Returns the assignment and its move count, or `None` when
/// some shed job fits nowhere. The capacities — hence the plan — are
/// invariant under uniform speed scaling `v → c·v`.
pub fn partition_at_threshold(
    inst: &Instance,
    speeds: &Speeds,
    x: Size,
    v: u64,
) -> Result<Option<(Assignment, usize)>> {
    speeds.matches(inst)?;
    if v == 0 {
        return Err(Error::ZeroSpeed { proc: 0 });
    }
    let mut scratch = Scratch::new();
    prepare_stacks(inst, &mut scratch);
    Ok(probe_threshold(
        inst,
        speeds,
        x,
        v,
        usize::MAX,
        &mut scratch,
    ))
}

/// Speed-scaled M-PARTITION with at most `k` moves.
///
/// Scans the rational candidate thresholds `x / v` (x drawn from job sizes,
/// initial loads, descending prefix sums, and the total size; v from the
/// distinct speeds) in increasing exact order and accepts the first one
/// whose [`partition_at_threshold`] plan fits the move budget. The scan
/// always terminates: at `x = total, v = v_min` every capacity is at least
/// the total size, so the do-nothing plan is feasible. When all speeds are
/// equal it delegates to the base [`crate::mpartition::rebalance`] ladder,
/// making bit-identity with the identical-machine solver structural.
pub fn rebalance_mpartition(
    inst: &Instance,
    speeds: &Speeds,
    k: usize,
) -> Result<HeteroMPartitionRun> {
    rebalance_mpartition_scratch_recorded(inst, speeds, k, &NoopRecorder, &mut Scratch::new())
}

/// [`rebalance_mpartition`] against a reusable [`Scratch`], with
/// instrumentation: times the run (`hetero.mpartition`) and counts probed
/// thresholds (`hetero.probes`).
pub fn rebalance_mpartition_scratch_recorded<R: Recorder>(
    inst: &Instance,
    speeds: &Speeds,
    k: usize,
    rec: &R,
    scratch: &mut Scratch,
) -> Result<HeteroMPartitionRun> {
    speeds.matches(inst)?;
    let _t = rec.time(names::HETERO_MPARTITION);

    if speeds.all_equal() {
        // Identical machines in disguise: the base ladder is both correct
        // and bit-identical by construction.
        let v = speeds.get(0);
        let run = mpartition::rebalance_scratch(inst, k, scratch)?;
        let scaled = scaled_makespan(inst, speeds, run.outcome.assignment())?;
        return Ok(HeteroMPartitionRun {
            outcome: run.outcome,
            scaled_makespan: scaled,
            threshold: (run.threshold, v),
            probes: run.probes,
        });
    }

    // Candidate numerators are speed-independent raw quantities, so the
    // candidate *rationals* {x / v} — and therefore the whole scan — are
    // invariant under uniform speed scaling.
    let mut numerators: Vec<Size> = Vec::new();
    numerators.extend_from_slice(inst.initial_loads());
    numerators.extend(inst.jobs().iter().map(|j| j.size));
    let mut desc: Vec<Size> = inst.jobs().iter().map(|j| j.size).collect();
    desc.sort_unstable_by_key(|&s| Reverse(s));
    let mut acc: Size = 0;
    for s in desc {
        acc = acc.saturating_add(s);
        numerators.push(acc);
    }
    numerators.push(inst.total_size());
    numerators.sort_unstable();
    numerators.dedup();

    let mut denoms: Vec<u64> = speeds.as_slice().to_vec();
    denoms.sort_unstable();
    denoms.dedup();

    let mut candidates: Vec<(Size, u64)> = Vec::with_capacity(numerators.len() * denoms.len());
    for &x in &numerators {
        for &v in &denoms {
            candidates.push((x, v));
        }
    }
    candidates.sort_by(|a, b| cmp_scaled(a.0, a.1, b.0, b.1));
    candidates.dedup_by(|a, b| cmp_scaled(a.0, a.1, b.0, b.1) == Ordering::Equal);

    prepare_stacks(inst, scratch);
    let mut probes = 0;
    let mut accepted = None;
    for &(x, v) in &candidates {
        probes += 1;
        rec.incr(names::HETERO_PROBES, 1);
        if let Some(plan) = probe_threshold(inst, speeds, x, v, k, scratch) {
            accepted = Some(((x, v), plan));
            break;
        }
    }
    // `(total, v_min)` is always feasible with zero moves, so the scan never
    // falls through; treat an empty candidate list (empty instance) as the
    // do-nothing plan.
    let ((x, v), (assignment, _moves)) = match accepted {
        Some(hit) => hit,
        None => ((inst.total_size(), 1), (inst.initial().clone(), 0)),
    };

    // No-regression clamp in *exact rational* terms (scale-invariant, unlike
    // comparing ceiled makespans): keep the initial assignment unless the
    // plan strictly improves the scaled makespan.
    let planned_loads = inst.loads_of(&assignment)?;
    let (pl, pv) = rational_makespan(&planned_loads, speeds);
    let (il, iv) = rational_makespan(inst.initial_loads(), speeds);
    let outcome = if cmp_scaled(pl, pv, il, iv) == Ordering::Less {
        RebalanceOutcome::from_assignment(inst, assignment)?
    } else {
        RebalanceOutcome::unchanged(inst)
    };
    rec.incr(names::HETERO_MOVES, outcome.moves() as u64);
    let scaled = scaled_makespan_of(&inst.loads_of(outcome.assignment())?, speeds);
    Ok(HeteroMPartitionRun {
        outcome,
        scaled_makespan: scaled,
        threshold: (x, v),
        probes,
    })
}

/// Build the per-processor job stacks (ascending by size, stable) used by
/// the threshold probes. Stacks are never mutated by a probe — each probe
/// tracks a per-processor cursor instead — so one build serves the scan.
fn prepare_stacks(inst: &Instance, scratch: &mut Scratch) {
    let s = &mut scratch.hetero;
    let m = inst.num_procs();
    s.per_proc.truncate(m);
    s.per_proc.resize_with(m, Vec::new);
    for jobs in &mut s.per_proc {
        jobs.clear();
    }
    for (j, &p) in inst.initial().iter().enumerate() {
        s.per_proc[p].push(j);
    }
    for jobs in &mut s.per_proc {
        jobs.sort_by_key(|&j| inst.size(j));
    }
}

/// One threshold probe: capacities `⌊x·v_q / v⌋`, shed largest-first, place
/// by minimum scaled finishing time. Returns the assignment and move count
/// when every shed job fits and the move budget holds.
fn probe_threshold(
    inst: &Instance,
    speeds: &Speeds,
    x: Size,
    v: u64,
    k: usize,
    scratch: &mut Scratch,
) -> Option<(Assignment, usize)> {
    let s = &mut scratch.hetero;
    let m = inst.num_procs();

    s.caps.clear();
    for q in 0..m {
        let wide = u128::from(x) * u128::from(speeds.get(q)) / u128::from(v);
        s.caps.push(Size::try_from(wide).unwrap_or(Size::MAX));
    }

    s.loads.clear();
    s.loads.extend_from_slice(inst.initial_loads());
    s.shed.clear();
    for q in 0..m {
        let stack = &s.per_proc[q];
        let mut keep = stack.len();
        while s.loads[q] > s.caps[q] && keep > 0 {
            keep -= 1;
            let j = stack[keep];
            s.loads[q] = s.loads[q].saturating_sub(inst.size(j));
            s.shed.push(j);
        }
        if s.loads[q] > s.caps[q] {
            // Empty processor still over capacity: impossible (load is 0),
            // kept for totality.
            return None;
        }
    }
    // Every shed job must land off its home processor (the home stays at or
    // above capacity minus what was shed), so shed count = move count.
    if s.shed.len() > k {
        return None;
    }

    // Deterministic largest-first placement; job id breaks size ties.
    s.shed.sort_unstable_by_key(|&j| (Reverse(inst.size(j)), j));
    let mut assignment = inst.initial().clone();
    for idx in 0..s.shed.len() {
        let j = s.shed[idx];
        let size = inst.size(j);
        let mut best: Option<(ProcId, Size)> = None;
        for q in 0..m {
            let new_load = s.loads[q].saturating_add(size);
            if new_load > s.caps[q] {
                continue;
            }
            match best {
                None => best = Some((q, new_load)),
                Some((bq, bl)) => match cmp_scaled(new_load, speeds.get(q), bl, speeds.get(bq)) {
                    Ordering::Less => best = Some((q, new_load)),
                    Ordering::Equal if (s.loads[q], q) < (s.loads[bq], bq) => {
                        best = Some((q, new_load));
                    }
                    _ => {}
                },
            }
        }
        let (q, new_load) = best?;
        assignment[j] = q;
        s.loads[q] = new_load;
    }
    let moves = s.shed.len();
    Some((assignment, moves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy;

    fn inst(sizes: &[u64], placement: &[usize], m: usize) -> Instance {
        Instance::from_sizes(sizes, placement.to_vec(), m).unwrap()
    }

    #[test]
    fn speeds_validation() {
        assert_eq!(Speeds::new(vec![]).unwrap_err(), Error::NoProcessors);
        assert_eq!(
            Speeds::new(vec![1, 0, 2]).unwrap_err(),
            Error::ZeroSpeed { proc: 1 }
        );
        let s = Speeds::new(vec![2, 2, 2]).unwrap();
        assert!(s.all_equal());
        assert_eq!(s.total(), 6);
        let s = Speeds::new(vec![1, 3]).unwrap();
        assert!(!s.all_equal());
    }

    #[test]
    fn speeds_length_is_checked() {
        let i = inst(&[3, 2], &[0, 1], 2);
        let s = Speeds::unit(3).unwrap();
        assert_eq!(
            rebalance_greedy(&i, &s, 1).unwrap_err(),
            Error::SpeedsLength {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn scaled_load_is_ceil_division() {
        assert_eq!(scaled_load(0, 3), 0);
        assert_eq!(scaled_load(1, 3), 1);
        assert_eq!(scaled_load(3, 3), 1);
        assert_eq!(scaled_load(4, 3), 2);
        assert_eq!(scaled_load(u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn cmp_scaled_is_exact_and_overflow_safe() {
        use Ordering::*;
        assert_eq!(cmp_scaled(1, 2, 2, 4), Equal); // 1/2 == 2/4
        assert_eq!(cmp_scaled(1, 3, 1, 2), Less); // 1/3 < 1/2
        assert_eq!(cmp_scaled(u64::MAX, 1, u64::MAX, 2), Greater);
    }

    #[test]
    fn unit_speeds_match_base_greedy_exactly() {
        let i = inst(&[9, 1, 1, 1, 8], &[0, 0, 0, 0, 1], 3);
        for k in 0..=5 {
            let base = greedy::rebalance(&i, k).unwrap();
            let speeds = Speeds::unit(3).unwrap();
            let run = rebalance_greedy(&i, &speeds, k).unwrap();
            assert_eq!(run.outcome.assignment(), base.assignment(), "k={k}");
            assert_eq!(run.scaled_makespan, base.makespan(), "k={k}");
        }
    }

    #[test]
    fn fast_processor_attracts_load() {
        // Proc 1 is 4x faster: with enough moves, GREEDY should finish with
        // a smaller scaled makespan than any identical-machine split.
        let i = inst(&[4, 4, 4, 4], &[0, 0, 0, 0], 2);
        let speeds = Speeds::new(vec![1, 4]).unwrap();
        let run = rebalance_greedy(&i, &speeds, 4).unwrap();
        // Everything on the fast machine: 16/4 = 4 ≤ any split involving
        // proc 0 (e.g. 8/1 = 8).
        assert_eq!(run.scaled_makespan, 4);
    }

    #[test]
    fn mpartition_unit_speeds_delegate_to_base() {
        let i = inst(&[7, 3, 3, 2, 1], &[0, 0, 0, 1, 2], 3);
        for k in 0..=4 {
            let base = mpartition::rebalance(&i, k).unwrap();
            let run = rebalance_mpartition(&i, &Speeds::unit(3).unwrap(), k).unwrap();
            assert_eq!(run.outcome.assignment(), base.outcome.assignment(), "k={k}");
            assert_eq!(run.threshold, (base.threshold, 1), "k={k}");
            assert_eq!(run.probes, base.probes, "k={k}");
        }
    }

    #[test]
    fn mpartition_respects_budget_and_never_regresses() {
        let i = inst(&[6, 5, 4, 3, 2, 1], &[0, 0, 0, 0, 1, 2], 3);
        let speeds = Speeds::new(vec![1, 2, 3]).unwrap();
        let initial = scaled_makespan(&i, &speeds, i.initial()).unwrap();
        for k in 0..=6 {
            let run = rebalance_mpartition(&i, &speeds, k).unwrap();
            assert!(run.outcome.moves() <= k, "k={k}");
            assert!(run.scaled_makespan <= initial, "k={k}");
        }
    }

    #[test]
    fn partition_at_threshold_respects_capacities() {
        let i = inst(&[6, 5, 4, 3], &[0, 0, 0, 0], 2);
        let speeds = Speeds::new(vec![1, 2]).unwrap();
        // Threshold 9/1: caps are 9 and 18 — proc 0 must shed to ≤ 9.
        let (assignment, moves) = partition_at_threshold(&i, &speeds, 9, 1).unwrap().unwrap();
        let loads = i.loads_of(&assignment).unwrap();
        assert!(loads[0] <= 9 && loads[1] <= 18, "{loads:?}");
        assert!(moves > 0);
        // An impossible threshold has no plan.
        assert!(partition_at_threshold(&i, &speeds, 1, 2).unwrap().is_none());
    }

    #[test]
    fn scaled_lower_bound_is_sound_here() {
        let i = inst(&[4, 4, 4, 4], &[0, 0, 0, 0], 2);
        let speeds = Speeds::new(vec![1, 3]).unwrap();
        let lb = scaled_lower_bound(&i, &speeds);
        let run = rebalance_greedy(&i, &speeds, 4).unwrap();
        assert!(lb <= run.scaled_makespan);
    }

    #[test]
    fn empty_instance_is_fine() {
        let i = inst(&[], &[], 2);
        let speeds = Speeds::new(vec![1, 2]).unwrap();
        let g = rebalance_greedy(&i, &speeds, 3).unwrap();
        assert_eq!(g.scaled_makespan, 0);
        let p = rebalance_mpartition(&i, &speeds, 3).unwrap();
        assert_eq!(p.scaled_makespan, 0);
        assert_eq!(p.outcome.moves(), 0);
    }
}

//! PARTITION for arbitrary relocation costs (§3.2).
//!
//! The structure mirrors the unit-cost algorithm, with two changes the
//! paper prescribes:
//!
//! * the per-processor counters `a_i`/`b_i` become *costs*, computed by a
//!   knapsack ("keep the most relocation cost subject to a size cap", see
//!   [`crate::knapsack`]); among a processor's large jobs the **most
//!   costly** one is kept;
//! * the makespan value is guessed by binary search; for each guess `A` the
//!   algorithm finds an assignment of makespan `≤ 1.5·A` whose removal cost
//!   is at most the cheapest way to achieve makespan `≤ A`, and the guess is
//!   accepted when that cost fits the budget `B`.
//!
//! Because sizes are integers, the binary search runs over integer
//! makespans and the paper's `(1+α)` guessing error disappears: the
//! result is within `1.5·OPT_B` whenever the planned cost is monotone
//! non-increasing in the guess (verified empirically by the T7/T14-style
//! property tests, as for M-PARTITION).
//!
//! The knapsack solver may fall back to a best-effort solution on
//! pathological inputs; that only ever *over*-estimates removal costs, so a
//! returned plan never violates the budget — it can only make the chosen
//! makespan guess slightly conservative (the paper's `ε`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lrb_obs::{names, NoopRecorder, Recorder};

use crate::deadline::WorkBudget;
use crate::error::{Error, Result};
use crate::knapsack::{max_cost_keep_bounded_recorded, Item, DEFAULT_NODE_BUDGET};
use crate::model::{Cost, Instance, JobId, Size};
use crate::outcome::RebalanceOutcome;
use crate::scratch::{PartitionScratch, Scratch};

/// Per-processor plan for one makespan guess.
#[derive(Debug, Clone)]
struct ProcPlan {
    /// Cost of the Step 1+3 variant: keep the costliest large job (shedding
    /// the rest) and keep smalls of maximum cost within size `A/2`.
    a_cost: Cost,
    /// Jobs removed under the `a` plan.
    a_removed: Vec<JobId>,
    /// Cost of the Step 4 variant: shed *all* large jobs and keep smalls of
    /// maximum cost within size `A`.
    b_cost: Cost,
    /// Jobs removed under the `b` plan.
    b_removed: Vec<JobId>,
    /// Whether the processor holds at least one large job.
    has_large: bool,
}

/// Result of a cost-PARTITION run.
#[derive(Debug, Clone)]
pub struct CostPartitionRun {
    /// The rebalanced assignment and its bookkeeping.
    pub outcome: RebalanceOutcome,
    /// The makespan guess the search settled on.
    pub guess: Size,
    /// Total removal cost the plan budgeted (realized cost can be lower).
    pub planned_cost: Cost,
    /// Number of large jobs at the final guess.
    pub l_t: usize,
}

/// Plan cost (total removal cost) at makespan guess `a`, without building
/// the assignment; `None` when the guess is infeasible (`L_T > m`).
pub fn planned_cost(inst: &Instance, a: Size) -> Option<Cost> {
    build_plans(inst, a, &NoopRecorder).map(|(plans, l_t)| select_cost(&plans, l_t))
}

/// Run the §3.2 algorithm: minimize makespan subject to a total relocation
/// cost budget `b`.
///
/// ```
/// use lrb_core::model::{Instance, Job};
///
/// // Two equal jobs piled up; moving the cheap one suffices.
/// let jobs = vec![Job::with_cost(5, 10), Job::with_cost(5, 1)];
/// let inst = Instance::new(jobs, vec![0, 0], 2).unwrap();
/// let run = lrb_core::cost_partition::rebalance(&inst, 1).unwrap();
/// assert_eq!(run.outcome.makespan(), 5);
/// assert!(run.outcome.cost() <= 1);
/// ```
pub fn rebalance(inst: &Instance, b: Cost) -> Result<CostPartitionRun> {
    rebalance_recorded(inst, b, &NoopRecorder)
}

/// [`rebalance`] with instrumentation: counts binary-search guesses
/// (`cost_partition.guesses`), times the guess search
/// (`cost_partition.search`) and the final build (`cost_partition.build`),
/// and threads the recorder into the per-processor knapsacks
/// (`knapsack.bb_nodes`, `knapsack.branch_and_bound`).
pub fn rebalance_recorded<R: Recorder>(
    inst: &Instance,
    b: Cost,
    rec: &R,
) -> Result<CostPartitionRun> {
    rebalance_impl(
        inst,
        b,
        rec,
        &WorkBudget::unlimited(),
        &mut PartitionScratch::default(),
    )
}

/// [`rebalance`] against a reusable [`Scratch`]: identical output, with the
/// selection/reassignment buffers recycled across calls. The per-guess
/// knapsack plans still allocate — they dominate the work here anyway.
pub fn rebalance_scratch(
    inst: &Instance,
    b: Cost,
    scratch: &mut Scratch,
) -> Result<CostPartitionRun> {
    rebalance_scratch_recorded(inst, b, &NoopRecorder, scratch)
}

/// [`rebalance_scratch`] with instrumentation threaded through.
pub fn rebalance_scratch_recorded<R: Recorder>(
    inst: &Instance,
    b: Cost,
    rec: &R,
    scratch: &mut Scratch,
) -> Result<CostPartitionRun> {
    rebalance_impl(
        inst,
        b,
        rec,
        &WorkBudget::unlimited(),
        &mut scratch.partition,
    )
}

/// Run cost-PARTITION under a [`WorkBudget`]: `n` ticks are charged per
/// binary-search guess (each guess runs two knapsacks per processor) plus
/// `n` for the final build, so the search cancels with [`Error::Cancelled`]
/// once the budget is exhausted.
pub fn rebalance_budgeted(inst: &Instance, b: Cost, work: &WorkBudget) -> Result<CostPartitionRun> {
    rebalance_impl(
        inst,
        b,
        &NoopRecorder,
        work,
        &mut PartitionScratch::default(),
    )
}

fn rebalance_impl<R: Recorder>(
    inst: &Instance,
    b: Cost,
    rec: &R,
    work: &WorkBudget,
    s: &mut PartitionScratch,
) -> Result<CostPartitionRun> {
    if inst.num_jobs() == 0 {
        return Ok(CostPartitionRun {
            outcome: RebalanceOutcome::unchanged(inst),
            guess: 0,
            planned_cost: 0,
            l_t: 0,
        });
    }
    // Integer binary search for the smallest guess whose plan fits the
    // budget. The initial makespan always fits (cost 0), so `hi` is valid.
    let search_timer = rec.time(names::COST_PARTITION_SEARCH);
    let lo0 = inst.avg_load_ceil().min(inst.initial_makespan());
    let hi0 = inst.initial_makespan();
    let (mut lo, mut hi) = (lo0, hi0);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        rec.incr(names::COST_PARTITION_GUESSES, 1);
        work.charge("cost_partition.guess", inst.num_jobs() as u64)?;
        let planned = build_plans(inst, mid, rec).map(|(plans, l_t)| select_cost(&plans, l_t));
        match planned {
            Some(cost) if cost <= b => hi = mid,
            _ => lo = mid + 1,
        }
    }
    drop(search_timer);
    work.charge(names::COST_PARTITION_BUILD, inst.num_jobs() as u64)?;
    let _t = rec.time(names::COST_PARTITION_BUILD);
    // No-regression clamp (mirrors M-PARTITION).
    run_at_impl(inst, lo, rec, s).map(|run| CostPartitionRun {
        outcome: run.outcome.clamp_to_initial(inst),
        ..run
    })
}

/// Run the algorithm at a fixed makespan guess `a`.
///
/// # Errors
///
/// [`Error::InfeasibleGuess`] when there are more large jobs than
/// processors.
pub fn run_at(inst: &Instance, a: Size) -> Result<CostPartitionRun> {
    run_at_impl(inst, a, &NoopRecorder, &mut PartitionScratch::default())
}

fn run_at_impl<R: Recorder>(
    inst: &Instance,
    a: Size,
    rec: &R,
    s: &mut PartitionScratch,
) -> Result<CostPartitionRun> {
    let Some((plans, l_t)) = build_plans(inst, a, rec) else {
        return Err(Error::InfeasibleGuess {
            guess: a,
            reason: "more large jobs than processors",
        });
    };
    let m = inst.num_procs();
    s.reset(m);

    // Select the L_T processors with the smallest c = a_cost − b_cost,
    // preferring processors with large jobs on ties (paper's rule).
    s.cs.extend((0..m).map(|p| {
        (
            plans[p].a_cost as i64 - plans[p].b_cost as i64,
            !plans[p].has_large,
            p,
        )
    }));
    s.cs.sort_unstable();
    for &(_, _, p) in s.cs.iter().take(l_t) {
        s.is_selected[p] = true;
    }

    let mut assignment = inst.initial().clone();
    s.loads.clear();
    s.loads.extend_from_slice(inst.initial_loads());
    let mut planned_cost = 0u64;

    for (p, plan) in plans.iter().enumerate() {
        let removed = if s.is_selected[p] {
            planned_cost += plan.a_cost;
            s.keeps_large[p] = plan.has_large;
            &plan.a_removed
        } else {
            planned_cost += plan.b_cost;
            &plan.b_removed
        };
        for &j in removed {
            s.loads[p] -= inst.size(j);
            if inst.size(j).saturating_mul(2) > a {
                s.homeless_large.push(j);
            } else {
                s.removed_small.push(j);
            }
        }
    }

    // Place homeless large jobs on distinct selected large-free processors.
    s.free_procs
        .extend((0..m).filter(|&p| s.is_selected[p] && !s.keeps_large[p]));
    debug_assert_eq!(s.free_procs.len(), s.homeless_large.len());
    let loads = &s.loads;
    s.free_procs.sort_by_key(|&p| (loads[p], p));
    s.homeless_large.sort_by_key(|&j| Reverse(inst.size(j)));
    for (&j, &p) in s.homeless_large.iter().zip(&s.free_procs) {
        assignment[j] = p;
        s.loads[p] += inst.size(j);
    }

    // Greedy min-load reassignment of removed smalls, largest first.
    s.removed_small.sort_by_key(|&j| Reverse(inst.size(j)));
    let mut heap_buf = std::mem::take(&mut s.min_heap);
    heap_buf.clear();
    heap_buf.extend(s.loads.iter().enumerate().map(|(p, &l)| Reverse((l, p))));
    let mut heap = BinaryHeap::from(heap_buf);
    for &j in &s.removed_small {
        let Reverse((load, p)) = heap.pop().ok_or(Error::NoProcessors)?;
        assignment[j] = p;
        heap.push(Reverse((load.saturating_add(inst.size(j)), p)));
    }
    s.min_heap = heap.into_vec();

    let outcome = RebalanceOutcome::from_assignment(inst, assignment)?;
    debug_assert!(outcome.cost() <= planned_cost);
    Ok(CostPartitionRun {
        outcome,
        guess: a,
        planned_cost,
        l_t,
    })
}

/// Compute per-processor plans at guess `a`; `None` if `L_T > m`.
fn build_plans<R: Recorder>(inst: &Instance, a: Size, rec: &R) -> Option<(Vec<ProcPlan>, usize)> {
    let m = inst.num_procs();
    let per_proc = inst.jobs_by_proc();
    let l_t = inst.jobs().iter().filter(|j| j.size > a / 2).count();
    if l_t > m {
        return None;
    }

    let mut plans = Vec::with_capacity(m);
    for jobs in &per_proc {
        let (larges, smalls): (Vec<JobId>, Vec<JobId>) = jobs
            .iter()
            .partition(|&&j| inst.size(j).saturating_mul(2) > a);

        // Keep the costliest large (cheapest to shed the rest).
        let kept_large = larges.iter().copied().max_by_key(|&j| (inst.cost(j), j));

        let items: Vec<Item> = smalls
            .iter()
            .map(|&j| Item {
                size: inst.size(j),
                cost: inst.cost(j),
            })
            .collect();
        let small_cost_total: Cost = items.iter().map(|it| it.cost).sum();

        let removed_from = |kept: &[usize]| -> Vec<JobId> {
            let mut kept_iter = kept.iter().peekable();
            let mut out = Vec::new();
            for (idx, &j) in smalls.iter().enumerate() {
                if kept_iter.peek() == Some(&&idx) {
                    kept_iter.next();
                } else {
                    out.push(j);
                }
            }
            out
        };

        // a-plan: smalls within A/2, keep costliest large.
        let keep_half = max_cost_keep_bounded_recorded(&items, a / 2, DEFAULT_NODE_BUDGET, rec);
        let mut a_removed = removed_from(&keep_half.kept);
        let mut a_cost = small_cost_total.saturating_sub(keep_half.kept_cost);
        for &j in &larges {
            if Some(j) != kept_large {
                a_removed.push(j);
                a_cost += inst.cost(j);
            }
        }

        // b-plan: smalls within A, shed all larges.
        let keep_full = max_cost_keep_bounded_recorded(&items, a, DEFAULT_NODE_BUDGET, rec);
        let mut b_removed = removed_from(&keep_full.kept);
        let mut b_cost = small_cost_total.saturating_sub(keep_full.kept_cost);
        for &j in &larges {
            b_removed.push(j);
            b_cost += inst.cost(j);
        }

        plans.push(ProcPlan {
            a_cost,
            a_removed,
            b_cost,
            b_removed,
            has_large: kept_large.is_some(),
        });
    }
    Some((plans, l_t))
}

/// Total planned cost for the optimal selection at the given plans.
fn select_cost(plans: &[ProcPlan], l_t: usize) -> Cost {
    let mut base: u64 = plans.iter().map(|p| p.b_cost).sum();
    let mut cs: Vec<(i64, bool)> = plans
        .iter()
        .map(|p| (p.a_cost as i64 - p.b_cost as i64, !p.has_large))
        .collect();
    cs.sort_unstable();
    let extra: i64 = cs.iter().take(l_t).map(|&(c, _)| c).sum();
    base = base.saturating_add_signed(extra);
    base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Job;

    fn inst_with_costs(jobs: &[(u64, u64)], initial: Vec<usize>, m: usize) -> Instance {
        let jobs = jobs.iter().map(|&(s, c)| Job::with_cost(s, c)).collect();
        Instance::new(jobs, initial, m).unwrap()
    }

    #[test]
    fn unit_costs_match_move_semantics() {
        // With unit costs, budget B behaves like a move budget.
        let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
        let run = rebalance(&inst, 2).unwrap();
        assert!(run.outcome.cost() <= 2);
        assert_eq!(run.outcome.makespan(), 6);
    }

    #[test]
    fn zero_budget_means_no_moves() {
        let inst = inst_with_costs(&[(5, 3), (5, 3)], vec![0, 0], 2);
        let run = rebalance(&inst, 0).unwrap();
        assert_eq!(run.outcome.moves(), 0);
        assert_eq!(run.outcome.makespan(), 10);
    }

    #[test]
    fn prefers_moving_cheap_jobs() {
        // Two equal-size jobs piled up; one costs 10, the other 1. With
        // budget 1 only the cheap one can move.
        let inst = inst_with_costs(&[(5, 10), (5, 1)], vec![0, 0], 2);
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.outcome.makespan(), 5);
        assert_eq!(run.outcome.moved(), &[1]);
        assert_eq!(run.outcome.cost(), 1);
    }

    #[test]
    fn budget_is_never_violated() {
        let inst = inst_with_costs(
            &[(9, 4), (7, 2), (6, 5), (5, 1), (4, 3), (3, 2)],
            vec![0, 0, 0, 1, 1, 2],
            3,
        );
        for b in 0..=20 {
            let run = rebalance(&inst, b).unwrap();
            assert!(
                run.outcome.cost() <= b,
                "budget {b}, cost {}",
                run.outcome.cost()
            );
        }
    }

    #[test]
    fn makespan_never_worse_than_initial() {
        let inst = inst_with_costs(&[(5, 2), (4, 2), (3, 2), (6, 2)], vec![0, 1, 0, 1], 2);
        for b in 0..=8 {
            let run = rebalance(&inst, b).unwrap();
            assert!(run.outcome.makespan() <= inst.initial_makespan(), "b={b}");
        }
    }

    #[test]
    fn larger_budget_never_hurts() {
        let inst = inst_with_costs(
            &[(8, 3), (6, 1), (5, 2), (4, 4), (2, 1)],
            vec![0, 0, 0, 0, 1],
            3,
        );
        let mut prev = u64::MAX;
        for b in 0..=11 {
            let run = rebalance(&inst, b).unwrap();
            assert!(run.outcome.makespan() <= prev, "b={b}");
            prev = run.outcome.makespan();
        }
    }

    #[test]
    fn keeps_costliest_large_job() {
        // Two large jobs on proc 0 (sizes 10); relocation costs 1 and 9.
        // Shedding the cheap one is optimal.
        let inst = inst_with_costs(&[(10, 1), (10, 9)], vec![0, 0], 2);
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.outcome.makespan(), 10);
        assert_eq!(run.outcome.moved(), &[0]);
    }

    #[test]
    fn run_at_reports_infeasible() {
        let inst = Instance::from_sizes(&[10, 10, 10], vec![0, 0, 1], 2).unwrap();
        assert!(matches!(
            run_at(&inst, 10),
            Err(Error::InfeasibleGuess { .. })
        ));
        assert_eq!(planned_cost(&inst, 10), None);
    }

    #[test]
    fn planned_cost_matches_run_at() {
        let inst = inst_with_costs(
            &[(9, 4), (7, 2), (6, 5), (5, 1), (4, 3), (3, 2)],
            vec![0, 0, 0, 1, 1, 2],
            3,
        );
        for a in [8u64, 10, 12, 15, 20, 34] {
            match run_at(&inst, a) {
                Ok(run) => assert_eq!(planned_cost(&inst, a), Some(run.planned_cost), "a={a}"),
                Err(_) => assert_eq!(planned_cost(&inst, a), None, "a={a}"),
            }
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = rebalance(&inst, 5).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_runs() {
        let a = inst_with_costs(
            &[(9, 4), (7, 2), (6, 5), (5, 1), (4, 3), (3, 2)],
            vec![0, 0, 0, 1, 1, 2],
            3,
        );
        let b = inst_with_costs(&[(10, 1), (10, 9)], vec![0, 0], 2);
        let mut scratch = Scratch::new();
        for inst in [&a, &b, &a] {
            for budget in 0..=8 {
                let fresh = rebalance(inst, budget).unwrap();
                let reused = rebalance_scratch(inst, budget, &mut scratch).unwrap();
                assert_eq!(fresh.guess, reused.guess, "b={budget}");
                assert_eq!(fresh.planned_cost, reused.planned_cost, "b={budget}");
                assert_eq!(
                    fresh.outcome.assignment(),
                    reused.outcome.assignment(),
                    "b={budget}"
                );
            }
        }
    }

    #[test]
    fn budgeted_run_cancels_and_matches_unbudgeted() {
        let inst = inst_with_costs(
            &[(9, 4), (7, 2), (6, 5), (5, 1), (4, 3), (3, 2)],
            vec![0, 0, 0, 1, 1, 2],
            3,
        );
        let err = rebalance_budgeted(&inst, 6, &WorkBudget::new(1)).unwrap_err();
        assert!(matches!(err, Error::Cancelled { .. }));

        let budgeted = rebalance_budgeted(&inst, 6, &WorkBudget::unlimited()).unwrap();
        let plain = rebalance(&inst, 6).unwrap();
        assert_eq!(budgeted.outcome.assignment(), plain.outcome.assignment());
    }
}

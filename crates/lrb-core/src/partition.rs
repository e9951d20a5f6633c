//! The paper's `PARTITION` algorithm (§3): given a makespan guess `T`, reach
//! a *half-optimal* configuration using the provably minimum number of
//! removals, then reassign greedily.
//!
//! When the guess satisfies `T ≤ OPT` and the run is feasible, the resulting
//! makespan is at most `1.5·OPT` and the number of moves is at most that of
//! any algorithm achieving makespan `≤ T` (Lemmas 3–4, Theorem 2). Feeding
//! it the right guess is [`crate::mpartition`]'s job.
//!
//! Steps, following the paper:
//!
//! 1. From each processor with large jobs (`2·size > T`), remove all large
//!    jobs except the smallest (`L_E` removals).
//! 2. Compute `a_i`, `b_i`, `c_i = a_i − b_i` per processor (see
//!    [`crate::profiles`] for the exact definitions used).
//! 3. Select the `L_T` processors with the smallest `c_i`, preferring
//!    processors holding a large job on ties; remove their `a_i` largest
//!    small jobs.
//! 4. From the unselected processors remove `b_i` jobs (their kept large job
//!    if any, plus largest-first small jobs until the small load is `≤ T`).
//! 5. Assign every homeless large job to a distinct selected large-free
//!    processor (the counting works out exactly; see DESIGN.md §5).
//! 6. Reassign the removed small jobs one-by-one to the currently
//!    minimum-loaded processor.
//!
//! **Large-free guesses.** At `T ≥ 2·p_max` no job is large, so `L_T = 0`:
//! Steps 1, 2, 3 and 5 have nothing to do and the plan is `Σ b_i`.
//! [`planned_moves`] then costs one prefix-sum search per processor whose
//! load exceeds `T` (see [`ProcProfile::b_large_free`]) and ranks nothing,
//! and [`run`] skips the Step 2 ranking. Outputs are bit-identical to the
//! general path: with `L_T = 0` the selection is empty however it is made.
//! Otherwise the `L_T` smallest `(c_i, no-large, p)` keys are picked by
//! selection rather than a full sort; the keys are unique, so it is the same
//! set. Step 6 sorts the removed small jobs by the unique key
//! `(Reverse(size), initial processor, id)`, which is the order a stable
//! size sort of the removal order gives, and the outcome is assembled from
//! the removed jobs and the final loads rather than a pass over every job.
//!
//! [`ProcProfile::b_large_free`]: crate::profiles::ProcProfile::b_large_free

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lrb_obs::{names, NoopRecorder, Recorder};

use crate::error::{Error, Result};
use crate::model::{Instance, JobId, ProcId, Size};
use crate::outcome::RebalanceOutcome;
use crate::profiles::Profiles;
use crate::scratch::PartitionScratch;

/// Diagnostics of a PARTITION run, exposing the paper's named quantities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionStats {
    /// The makespan guess the run used.
    pub guess: Size,
    /// Total number of large jobs `L_T`.
    pub l_t: usize,
    /// Number of processors holding at least one large job `m_L`.
    pub m_l: usize,
    /// Number of *extra* large jobs removed in Step 1 (`L_E = L_T − m_L`).
    pub l_e: usize,
    /// The selected processors of Step 3.
    pub selected: Vec<ProcId>,
    /// Removals planned by the algorithm (Step 1 + `a_i` over selected +
    /// `b_i` over unselected). The realized move count can be lower if the
    /// greedy reassignment returns a job to its original processor.
    pub planned_moves: usize,
}

/// Result of a PARTITION run: the outcome plus diagnostics.
#[derive(Debug, Clone)]
pub struct PartitionRun {
    /// The rebalanced assignment and its bookkeeping.
    pub outcome: RebalanceOutcome,
    /// The paper's quantities for this run.
    pub stats: PartitionStats,
}

/// Number of removals PARTITION would plan at guess `t`, without building
/// the assignment; `None` when the guess is infeasible (`L_T > m`).
///
/// This is the quantity `M-PARTITION` thresholds on: `L_E + Σ_selected a_i +
/// Σ_unselected b_i`, with the selection minimizing the total.
pub fn planned_moves(profiles: &Profiles, t: Size) -> Option<usize> {
    planned_moves_with(profiles, t, &mut Vec::new())
}

/// [`planned_moves`] against a caller-owned ranking buffer, so M-PARTITION's
/// threshold probes reuse one allocation across the whole search.
pub(crate) fn planned_moves_with(
    profiles: &Profiles,
    t: Size,
    cs: &mut Vec<(i64, bool, ProcId)>,
) -> Option<usize> {
    let m = profiles.num_procs();
    let l_t = profiles.l_t(t);
    if l_t > m {
        return None;
    }
    if l_t == 0 {
        // Large-free guess: nothing is stripped or selected, so the plan
        // is Σ b_i, each processor's b_i one prefix-sum search at most.
        return Some(
            (0..m)
                .map(|p| profiles.proc(p).b_large_free(t))
                .fold(0usize, usize::saturating_add),
        );
    }
    // One pass: m_L, Σ b_i over all processors, and every c_i.
    let (mut m_l, mut sum_b) = (0usize, 0usize);
    cs.clear();
    cs.extend((0..m).map(|p| {
        let prof = profiles.proc(p);
        let (sc, a, b) = prof.eval(t);
        let has_large = sc < prof.len();
        m_l += usize::from(has_large);
        sum_b += b;
        (a as i64 - b as i64, !has_large, p)
    }));
    let l_e = l_t.saturating_sub(m_l);
    // Only the sum of the L_T smallest c_i matters here, and it does not
    // depend on how ties are ordered, so a selection replaces the sort.
    if l_t < m {
        cs.select_nth_unstable(l_t);
    }
    let selected_extra: i64 = cs[..l_t].iter().map(|&(c, _, _)| c).sum();
    // L_E + Σ b_i + Σ_selected (a_i − b_i) = L_E + Σ_sel a_i + Σ_unsel b_i.
    Some((l_e.saturating_add(sum_b) as i64).saturating_add(selected_extra) as usize)
}

/// Run PARTITION at makespan guess `t`.
///
/// # Errors
///
/// Returns [`Error::InfeasibleGuess`] when there are more large jobs than
/// processors, which certifies `t < OPT`.
pub fn run(inst: &Instance, t: Size) -> Result<PartitionRun> {
    let profiles = Profiles::new(inst);
    run_with_profiles(inst, &profiles, t)
}

/// [`run`] against precomputed profiles (used by M-PARTITION to avoid
/// rebuilding them per guess).
pub fn run_with_profiles(inst: &Instance, profiles: &Profiles, t: Size) -> Result<PartitionRun> {
    run_impl(
        inst,
        profiles,
        t,
        &NoopRecorder,
        &mut PartitionScratch::default(),
    )
}

/// PARTITION at guess `t` against `s`'s recycled buffers. Each of the
/// paper's six steps is timed as its own phase (`partition.step1_strip` …
/// `partition.step6_reinsert`) and the planned large/small removals are
/// counted (`partition.large_removed` / `partition.small_removed`).
pub(crate) fn run_impl<R: Recorder>(
    inst: &Instance,
    profiles: &Profiles,
    t: Size,
    rec: &R,
    s: &mut PartitionScratch,
) -> Result<PartitionRun> {
    if let Some(proc) = profiles.overflow {
        return Err(Error::LoadOverflow { proc });
    }
    let m = inst.num_procs();
    let l_t = profiles.l_t(t);
    if l_t > m {
        return Err(Error::InfeasibleGuess {
            guess: t,
            reason: "more large jobs than processors",
        });
    }
    let mut assignment = inst.initial().clone();
    s.reset(m);
    s.loads.clear();
    s.loads.extend_from_slice(inst.initial_loads());
    let mut planned = 0usize;

    // Step 1: strip extra large jobs, keeping the smallest large per
    // processor. Profiles sort each processor's jobs ascending, so the kept
    // large is the first one past the small prefix. Each processor's
    // (small_count, a_i, b_i) is evaluated once here and reused by Steps 2-4.
    // kept_large[p] = Some(job) for processors holding a large after Step 1.
    let step1 = rec.time(names::PARTITION_STEP1_STRIP);
    let mut m_l = 0usize;
    for p in 0..m {
        let prof = profiles.proc(p);
        let (sc, a, b) = prof.eval(t);
        s.evals.push((sc, a, b));
        if sc < prof.len() {
            m_l += 1;
            s.kept_large[p] = Some(prof.jobs_asc[sc]);
            for &j in &prof.jobs_asc[sc.saturating_add(1)..] {
                s.homeless_large.push(j);
                s.loads[p] -= inst.size(j);
                planned += 1;
            }
        }
    }
    let l_e = l_t.saturating_sub(m_l);
    debug_assert_eq!(planned, l_e);
    drop(step1);

    // Step 2 + 3: rank processors by c_i and select L_T of them. The keys
    // are unique (the processor id breaks every tie), so the L_T smallest
    // form one set however they are found; a large-free guess selects none.
    let step2 = rec.time(names::PARTITION_STEP2_RANK);
    s.cs.clear();
    if l_t > 0 {
        s.cs.extend(
            s.evals
                .iter()
                .enumerate()
                .map(|(p, &(_, a, b))| (a as i64 - b as i64, s.kept_large[p].is_none(), p)),
        );
        if l_t < m {
            s.cs.select_nth_unstable(l_t);
        }
        for &(_, _, p) in &s.cs[..l_t] {
            s.is_selected[p] = true;
        }
    }
    let selected: Vec<ProcId> = (0..m).filter(|&p| s.is_selected[p]).collect();
    drop(step2);

    for p in 0..m {
        let prof = profiles.proc(p);
        let (sc, a, b) = s.evals[p];
        if s.is_selected[p] {
            // Step 3: shed the a_i largest small jobs (end of the small
            // prefix), keeping the large job if present.
            let _t = rec.time(names::PARTITION_STEP3_SHED_SELECTED);
            for &j in &prof.jobs_asc[sc.saturating_sub(a)..sc] {
                s.removed_small.push(j);
                s.loads[p] -= inst.size(j);
                planned += 1;
            }
        } else {
            // Step 4: shed the kept large (mandatory) plus largest-first
            // small jobs until the small total fits in t.
            let _t = rec.time(names::PARTITION_STEP4_SHED_UNSELECTED);
            let mut small_removals = b;
            if let Some(j) = s.kept_large[p] {
                s.homeless_large.push(j);
                s.loads[p] -= inst.size(j);
                s.kept_large[p] = None;
                small_removals -= 1;
            }
            for &j in &prof.jobs_asc[sc.saturating_sub(small_removals)..sc] {
                s.removed_small.push(j);
                s.loads[p] -= inst.size(j);
            }
            planned += b;
        }
    }
    rec.incr(
        names::PARTITION_LARGE_REMOVED,
        s.homeless_large.len() as u64,
    );
    rec.incr(names::PARTITION_SMALL_REMOVED, s.removed_small.len() as u64);

    // Step 5 (covers the paper's Steps 4-5 reassignments): place homeless
    // large jobs on distinct selected large-free processors — largest job
    // onto the least-loaded such processor first.
    let step5 = rec.time(names::PARTITION_STEP5_PLACE_LARGE);
    s.free_procs.extend(
        selected
            .iter()
            .copied()
            .filter(|&p| s.kept_large[p].is_none()),
    );
    debug_assert_eq!(
        s.free_procs.len(),
        s.homeless_large.len(),
        "large-free slot count must match homeless large jobs"
    );
    let loads = &s.loads;
    s.free_procs.sort_by_key(|&p| (loads[p], p));
    s.homeless_large.sort_by_key(|&j| Reverse(inst.size(j)));
    for (&j, &p) in s.homeless_large.iter().zip(&s.free_procs) {
        assignment[j] = p;
        s.loads[p] += inst.size(j);
    }
    drop(step5);

    // Step 6: greedy min-load placement of the removed small jobs,
    // largest first; equal sizes keep the order they were removed in (by
    // processor, then id), which the unique key spells out.
    let step6 = rec.time(names::PARTITION_STEP6_REINSERT);
    let initial = inst.initial();
    s.removed_small
        .sort_unstable_by_key(|&j| (Reverse(inst.size(j)), initial[j], j));
    let mut heap_buf = std::mem::take(&mut s.min_heap);
    heap_buf.clear();
    heap_buf.extend(s.loads.iter().enumerate().map(|(p, &l)| Reverse((l, p))));
    let mut heap = BinaryHeap::from(heap_buf);
    for &j in &s.removed_small {
        let mut top = heap.peek_mut().ok_or(Error::NoProcessors)?;
        let Reverse((load, p)) = &mut *top;
        *load = load.saturating_add(inst.size(j));
        s.loads[*p] = *load;
        assignment[j] = *p;
    }
    s.min_heap = heap.into_vec();
    drop(step6);

    // Only removed jobs can have changed processor, so the outcome is
    // assembled from them and the final loads without a pass over all jobs.
    let mut moved: Vec<JobId> = s
        .homeless_large
        .iter()
        .chain(&s.removed_small)
        .copied()
        .filter(|&j| assignment[j] != initial[j])
        .collect();
    moved.sort_unstable();
    let makespan = s.loads.iter().copied().max().unwrap_or(0);
    let outcome = RebalanceOutcome::from_moved(inst, assignment, makespan, moved);
    debug_assert!(
        outcome.moves() <= planned,
        "realized moves cannot exceed planned removals"
    );
    Ok(PartitionRun {
        outcome,
        stats: PartitionStats {
            guess: t,
            l_t,
            m_l,
            l_e,
            selected,
            planned_moves: planned,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Theorem 2 tightness instance: 2 processors, proc 0 holds
    /// sizes {1, 2} (i.e. {½, 1} scaled by 2), proc 1 holds {1}; k = 1,
    /// OPT = 2.
    fn tightness() -> Instance {
        Instance::from_sizes(&[1, 2, 1], vec![0, 0, 1], 2).unwrap()
    }

    #[test]
    fn planned_moves_matches_run() {
        let inst = Instance::from_sizes(&[7, 2, 3, 4, 6, 1], vec![0, 0, 0, 1, 1, 2], 3).unwrap();
        let profiles = Profiles::new(&inst);
        for t in [6u64, 8, 10, 12, 14, 20] {
            let counted = planned_moves(&profiles, t);
            match run_with_profiles(&inst, &profiles, t) {
                Ok(run) => assert_eq!(counted, Some(run.stats.planned_moves), "t={t}"),
                Err(_) => assert_eq!(counted, None, "t={t}"),
            }
        }
    }

    #[test]
    fn infeasible_when_too_many_large_jobs() {
        // 3 jobs of size 10 on 2 processors; t = 10 makes all three large
        // (2*10 > 10), L_T = 3 > m = 2.
        let inst = Instance::from_sizes(&[10, 10, 10], vec![0, 0, 1], 2).unwrap();
        assert!(matches!(run(&inst, 10), Err(Error::InfeasibleGuess { .. })));
        let profiles = Profiles::new(&inst);
        assert_eq!(planned_moves(&profiles, 10), None);
    }

    #[test]
    fn paper_tightness_instance_makes_no_moves() {
        // With the true OPT = 2 as the guess, the paper shows PARTITION
        // makes no moves (L_T = 1, L_E = 0, a = b = 0 on proc 0 once the
        // size-2 job is the kept large; proc 1 fits), leaving makespan 3 =
        // 1.5 * OPT exactly.
        let inst = tightness();
        let run = run(&inst, 2).unwrap();
        assert_eq!(run.stats.l_t, 1);
        assert_eq!(run.stats.l_e, 0);
        assert_eq!(run.stats.planned_moves, 0);
        assert_eq!(run.outcome.makespan(), 3);
        assert_eq!(run.outcome.moves(), 0);
    }

    #[test]
    fn achieves_1_5_bound_at_true_opt() {
        // Everything on proc 0: sizes {4,3,3,2}; m=2. With k=2 the optimum
        // moves {4,2} or {3,3} across, OPT = 6.
        let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
        let run = run(&inst, 6).unwrap();
        // 2 * makespan <= 3 * OPT.
        assert!(
            2 * run.outcome.makespan() <= 3 * 6,
            "makespan {}",
            run.outcome.makespan()
        );
        assert!(
            run.stats.planned_moves <= 2,
            "planned {}",
            run.stats.planned_moves
        );
    }

    #[test]
    fn selected_processors_count_is_l_t() {
        let inst = Instance::from_sizes(&[9, 8, 1, 1, 1, 1], vec![0, 0, 1, 1, 2, 2], 3).unwrap();
        // t = 9: larges are 9 and 8 (2s > 9), both on proc 0 -> L_T = 2, m_L = 1.
        let run = run(&inst, 9).unwrap();
        assert_eq!(run.stats.l_t, 2);
        assert_eq!(run.stats.m_l, 1);
        assert_eq!(run.stats.l_e, 1);
        assert_eq!(run.stats.selected.len(), 2);
        // After the run each processor carries at most one large job.
        let loads = inst.loads_of(run.outcome.assignment()).unwrap();
        for (p, &l) in loads.iter().enumerate() {
            let larges = run
                .outcome
                .assignment()
                .iter()
                .enumerate()
                .filter(|&(j, &q)| q == p && 2 * inst.size(j) > 9)
                .count();
            assert!(larges <= 1, "proc {p} load {l} has {larges} large jobs");
        }
    }

    #[test]
    fn huge_guess_means_identity() {
        let inst = Instance::from_sizes(&[5, 4, 3], vec![0, 0, 1], 2).unwrap();
        let t = 2 * inst.total_size();
        let run = run(&inst, t).unwrap();
        assert_eq!(run.stats.planned_moves, 0);
        assert_eq!(run.outcome.assignment(), inst.initial());
    }

    #[test]
    fn all_large_distinct_processors() {
        // One large job per processor, guess tight: nothing should move.
        let inst = Instance::from_sizes(&[10, 10, 10], vec![0, 1, 2], 3).unwrap();
        let run = run(&inst, 10).unwrap();
        assert_eq!(run.stats.l_t, 3);
        assert_eq!(run.stats.planned_moves, 0);
        assert_eq!(run.outcome.makespan(), 10);
    }

    #[test]
    fn spreads_piled_up_large_jobs() {
        // Three large jobs piled on proc 0 of 3: Step 1 removes two, Step 5
        // spreads them; result is perfectly balanced with 2 moves.
        let inst = Instance::from_sizes(&[10, 10, 10], vec![0, 0, 0], 3).unwrap();
        let run = run(&inst, 10).unwrap();
        assert_eq!(run.stats.l_e, 2);
        assert_eq!(run.stats.planned_moves, 2);
        assert_eq!(run.outcome.makespan(), 10);
        assert_eq!(run.outcome.moves(), 2);
    }

    /// Runs PARTITION and checks the outcome it assembled from its removed
    /// jobs and final loads against a full recount of its assignment.
    fn run_checked(sizes: &[Size], initial: Vec<ProcId>, m: usize, t: Size) -> PartitionRun {
        let inst = Instance::from_sizes(sizes, initial, m).unwrap();
        let run = run(&inst, t).unwrap();
        let recount =
            RebalanceOutcome::from_assignment(&inst, run.outcome.assignment().clone()).unwrap();
        assert_eq!(run.outcome, recount, "{sizes:?} at t={t}");
        run
    }

    #[test]
    fn large_free_outcome_matches_full_recount() {
        // t = 8 = 2·p_max: nothing is large, nothing is selected, and the
        // single planned removal (the 4) moves.
        let run = run_checked(&[4, 3, 3, 2], vec![0; 4], 2, 8);
        assert_eq!((run.stats.l_t, run.stats.planned_moves), (0, 1));
        assert!(run.stats.selected.is_empty());
        assert_eq!(run.outcome.moved(), &[0]);
    }

    #[test]
    fn large_job_outcome_matches_full_recount() {
        // The selected_processors_count_is_l_t instance: L_T = 2, one
        // large job stripped in Step 1 and placed in Step 5.
        let run = run_checked(&[9, 8, 1, 1, 1, 1], vec![0, 0, 1, 1, 2, 2], 3, 9);
        assert_eq!((run.stats.l_t, run.stats.l_e), (2, 1));
        assert!(run.outcome.moves() > 0);
    }

    #[test]
    fn job_reinserted_on_its_own_processor_is_not_a_move() {
        // L_T = 0: processor 1 sheds two jobs, and Step 6 puts one back on
        // processor 1, so only one of the two planned removals moves.
        let run = run_checked(&[5, 2, 4, 4, 5], vec![1, 1, 1, 0, 1], 2, 10);
        assert_eq!((run.stats.l_t, run.stats.planned_moves), (0, 2));
        assert_eq!(run.outcome.moves(), 1);
        // L_T = 2: likewise with large jobs in play.
        let run = run_checked(&[7, 1, 7, 5, 5], vec![1, 2, 1, 2, 2], 3, 10);
        assert_eq!((run.stats.l_t, run.stats.planned_moves), (2, 2));
        assert_eq!(run.outcome.moves(), 1);
    }

    #[test]
    fn empty_instance_runs() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = run(&inst, 0).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }
}

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

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lrb_obs::{names, NoopRecorder, Recorder};

use crate::error::{Error, Result};
use crate::model::{Instance, ProcId, Size};
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
    let m_l = profiles.m_l(t);
    let l_e = l_t.saturating_sub(m_l);

    let mut base = l_e;
    // Σ b_i over all processors, plus the selected processors' c_i.
    cs.clear();
    cs.extend((0..m).map(|p| {
        base += profiles.b(p, t);
        (profiles.c(p, t), !profiles.has_large(p, t), p)
    }));
    // Smallest c first; ties prefer large-holding processors (false < true).
    cs.sort_unstable();
    let selected_extra: i64 = cs.iter().take(l_t).map(|&(c, _, _)| c).sum();
    // base + Σ_selected (a_i − b_i) = L_E + Σ_sel a_i + Σ_unsel b_i.
    Some((base as i64).saturating_add(selected_extra) as usize)
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
    let m = inst.num_procs();
    let l_t = profiles.l_t(t);
    if l_t > m {
        return Err(Error::InfeasibleGuess {
            guess: t,
            reason: "more large jobs than processors",
        });
    }
    let m_l = profiles.m_l(t);
    let l_e = l_t.saturating_sub(m_l);

    let mut assignment = inst.initial().clone();
    s.reset(m);
    s.loads.clear();
    s.loads.extend_from_slice(inst.initial_loads());
    let mut planned = 0usize;

    // Step 1: strip extra large jobs, keeping the smallest large per
    // processor. Profiles sort each processor's jobs ascending, so the kept
    // large is the first one past the small prefix.
    // kept_large[p] = Some(job) for processors holding a large after Step 1.
    let step1 = rec.time(names::PARTITION_STEP1_STRIP);
    for p in 0..m {
        let prof = profiles.proc(p);
        let sc = profiles.small_count(p, t);
        if sc < prof.len() {
            s.kept_large[p] = Some(prof.jobs_asc[sc]);
            for &j in &prof.jobs_asc[sc.saturating_add(1)..] {
                s.homeless_large.push(j);
                s.loads[p] -= inst.size(j);
                planned += 1;
            }
        }
    }
    debug_assert_eq!(planned, l_e);
    drop(step1);

    // Step 2 + 3: rank processors by c_i and select L_T of them.
    let step2 = rec.time(names::PARTITION_STEP2_RANK);
    s.cs.clear();
    s.cs.extend((0..m).map(|p| (profiles.c(p, t), s.kept_large[p].is_none(), p)));
    s.cs.sort_unstable();
    for &(_, _, p) in s.cs.iter().take(l_t) {
        s.is_selected[p] = true;
    }
    let selected: Vec<ProcId> = (0..m).filter(|&p| s.is_selected[p]).collect();
    drop(step2);

    for p in 0..m {
        let prof = profiles.proc(p);
        let sc = profiles.small_count(p, t);
        if s.is_selected[p] {
            // Step 3: shed the a_i largest small jobs (end of the small
            // prefix), keeping the large job if present.
            let _t = rec.time(names::PARTITION_STEP3_SHED_SELECTED);
            let a = profiles.a(p, t);
            for &j in &prof.jobs_asc[sc.saturating_sub(a)..sc] {
                s.removed_small.push(j);
                s.loads[p] -= inst.size(j);
                planned += 1;
            }
        } else {
            // Step 4: shed the kept large (mandatory) plus largest-first
            // small jobs until the small total fits in t.
            let _t = rec.time(names::PARTITION_STEP4_SHED_UNSELECTED);
            let b = profiles.b(p, t);
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
    // largest first.
    let step6 = rec.time(names::PARTITION_STEP6_REINSERT);
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
    drop(step6);

    let outcome = RebalanceOutcome::from_assignment(inst, assignment)?;
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

    #[test]
    fn empty_instance_runs() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = run(&inst, 0).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }
}

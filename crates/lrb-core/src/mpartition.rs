//! `M-PARTITION` (§3.1): run [`crate::partition`] without knowing `OPT`.
//!
//! PARTITION never looks at the move budget `k` directly; it guarantees it
//! uses no more moves than an optimal rebalancer *for its makespan guess*.
//! M-PARTITION therefore searches the discrete threshold set of Lemma 5 for
//! the smallest guess at which PARTITION plans at most `k` moves. Because
//! the optimal solution itself uses at most `k` moves, the search stops at a
//! threshold no larger than `OPT` (Lemma 6), which yields the 1.5 ratio
//! (Theorem 3).
//!
//! Four search strategies are provided (experiment T14 is their ablation):
//!
//! * [`ThresholdSearch::Scan`] — the paper's increasing scan from the
//!   average-load guess; always finds the *first* feasible threshold.
//! * [`ThresholdSearch::Incremental`] — the same scan with `O(log n)`
//!   updates per threshold event (Theorem 3's data structure).
//! * [`ThresholdSearch::Binary`] — binary search over the same candidate
//!   list, exploiting that the planned move count is non-increasing in the
//!   guess. Its agreement with the scan is enforced by property tests (if
//!   a non-monotone instance existed, the two variants would disagree and
//!   the tests would catch it).
//! * [`ThresholdSearch::Select`] — the default: when the answer is a
//!   large-free guess (`T ≥ 2·p_max`), it is read off the prefix sums with
//!   one selection, with no candidate ladder and no probe; otherwise it
//!   falls back to `Binary`.
//!
//! Either way, the produced assignment is *always* valid and within budget;
//! the search strategy affects only which threshold is chosen.

use lrb_obs::{names, NoopRecorder, Recorder};

use crate::deadline::WorkBudget;
use crate::error::{Error, Result};
use crate::model::{Instance, Size};
use crate::outcome::RebalanceOutcome;
use crate::partition::{self, PartitionStats};
use crate::scratch::Scratch;

/// How M-PARTITION locates the smallest feasible threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThresholdSearch {
    /// Increasing scan from the average load, re-evaluating every processor
    /// at each probed threshold (`O(m log n)` per probe).
    Scan,
    /// The paper's incremental increasing scan: `O(log n)` per threshold
    /// *event* via a Fenwick multiset of `c_i` values — the data structure
    /// behind the `O(n log n)` bound of Theorem 3. Finds the same threshold
    /// as `Scan`.
    Incremental,
    /// Binary search over the candidate thresholds.
    Binary,
    /// Threshold by selection (default). Above `2·p_max` no job is large,
    /// so PARTITION plans `Σ_i b_i(T)` moves: the number of per-processor
    /// prefix sums above `T`. When more than `k` prefix sums exceed
    /// `2·p_max`, the smallest feasible guess there is the (k+1)-th largest
    /// of them, `v`, found with one `select_nth_unstable`; the threshold is
    /// `v`, or the ladder's first rung when `v` is below the average-load
    /// floor. Otherwise (at most `k` such sums) it runs `Binary`. Every
    /// guess below `v` needs more than `k` moves in any schedule, so the
    /// threshold stays ≤ OPT (Lemma 6); see DESIGN.md §5.
    #[default]
    Select,
}

/// Result of an M-PARTITION run.
#[derive(Debug, Clone)]
pub struct MPartitionRun {
    /// The rebalanced assignment (clamped to the initial assignment if that
    /// was already at least as good).
    pub outcome: RebalanceOutcome,
    /// The threshold the search settled on (≤ OPT by Lemma 6).
    pub threshold: Size,
    /// Stats of the PARTITION run at that threshold.
    pub stats: PartitionStats,
    /// How many thresholds were probed (for the T14 ablation).
    pub probes: usize,
}

/// Run M-PARTITION with at most `k` moves using the default search.
///
/// ```
/// use lrb_core::model::Instance;
///
/// let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
/// let run = lrb_core::mpartition::rebalance(&inst, 2).unwrap();
/// assert!(run.outcome.moves() <= 2);
/// assert_eq!(run.outcome.makespan(), 6); // OPT here; the guarantee is 1.5*OPT
/// assert!(run.threshold <= 6);           // Lemma 6
/// ```
pub fn rebalance(inst: &Instance, k: usize) -> Result<MPartitionRun> {
    rebalance_with(inst, k, ThresholdSearch::default())
}

/// Run M-PARTITION with an explicit search strategy.
pub fn rebalance_with(inst: &Instance, k: usize, search: ThresholdSearch) -> Result<MPartitionRun> {
    rebalance_with_recorded(inst, k, search, &NoopRecorder)
}

/// [`rebalance_with`] with instrumentation: times the candidate build
/// (`mpartition.ladder_build`), the threshold search or selection
/// (`mpartition.search`) and the final PARTITION run
/// (`mpartition.partition`), once each per solve. For every ladder actually
/// built it counts how many candidate thresholds were examined versus
/// skipped (`mpartition.candidates_total` / `_examined` / `_skipped`), and
/// it counts the `Select` solves that fell back to a ladder
/// (`mpartition.select_fallbacks`).
pub fn rebalance_with_recorded<R: Recorder>(
    inst: &Instance,
    k: usize,
    search: ThresholdSearch,
    rec: &R,
) -> Result<MPartitionRun> {
    let mut scratch = Scratch::new();
    rebalance_impl(inst, k, search, rec, &WorkBudget::unlimited(), &mut scratch)
}

/// Run M-PARTITION against a reusable [`Scratch`] (default search).
///
/// Identical output to [`rebalance`], but profiles, the candidate ladder,
/// and every PARTITION working buffer live in `scratch` and are recycled
/// across calls — including the multiset-keyed threshold-ladder cache, so a
/// batch of same-job-multiset instances sorts the global size array once.
pub fn rebalance_scratch(
    inst: &Instance,
    k: usize,
    scratch: &mut Scratch,
) -> Result<MPartitionRun> {
    rebalance_scratch_recorded(inst, k, ThresholdSearch::default(), &NoopRecorder, scratch)
}

/// [`rebalance_scratch`] with an explicit search strategy and recorder.
pub fn rebalance_scratch_recorded<R: Recorder>(
    inst: &Instance,
    k: usize,
    search: ThresholdSearch,
    rec: &R,
    scratch: &mut Scratch,
) -> Result<MPartitionRun> {
    rebalance_impl(inst, k, search, rec, &WorkBudget::unlimited(), scratch)
}

/// Run M-PARTITION under a [`WorkBudget`]: ticks are charged for profile
/// construction, each probed threshold (one for `Select`'s selection), and
/// the final PARTITION run, so the search cancels with [`Error::Cancelled`]
/// once the budget is exhausted.
pub fn rebalance_budgeted(
    inst: &Instance,
    k: usize,
    search: ThresholdSearch,
    work: &WorkBudget,
) -> Result<MPartitionRun> {
    let mut scratch = Scratch::new();
    rebalance_impl(inst, k, search, &NoopRecorder, work, &mut scratch)
}

fn rebalance_impl<R: Recorder>(
    inst: &Instance,
    k: usize,
    search: ThresholdSearch,
    rec: &R,
    work: &WorkBudget,
    scratch: &mut Scratch,
) -> Result<MPartitionRun> {
    if inst.num_jobs() == 0 {
        return Ok(MPartitionRun {
            outcome: RebalanceOutcome::unchanged(inst),
            threshold: 0,
            stats: PartitionStats {
                guess: 0,
                l_t: 0,
                m_l: 0,
                l_e: 0,
                selected: Vec::new(),
                planned_moves: 0,
            },
            probes: 0,
        });
    }

    work.charge("mpartition.profiles", inst.num_jobs() as u64)?;
    let Scratch {
        profiles,
        candidates,
        partition: pscratch,
        ..
    } = scratch;
    let floor = inst.avg_load_ceil();
    let fast_path = {
        // Timed on every solve (cache hits included) so the phase's call
        // count — and hence a trace's determinism hash — is independent of
        // which worker's warm ladder served the item, and of whether
        // `Select` took its fast path.
        let _ladder_build = rec.time(names::MPARTITION_LADDER_BUILD);
        profiles.rebuild(inst);
        if let Some(proc) = profiles.overflow {
            return Err(Error::LoadOverflow { proc });
        }
        let fast_path = search == ThresholdSearch::Select && {
            profiles.large_free_sums_into(candidates);
            candidates.len() > k
        };
        if !fast_path {
            // Start at the paper's average-load guess — but because the
            // search only evaluates candidate thresholds and behavior is
            // constant *between* candidates, the region containing OPT may
            // begin at the last candidate strictly below the average (Lemma
            // 6 talks about the largest threshold not exceeding OPT). The
            // ladder keeps that one candidate and nothing else below the
            // average: the average load is a lower bound on OPT, and the
            // search's answer is at most OPT.
            profiles.ladder_into(floor, candidates);
            debug_assert!(
                !candidates.is_empty(),
                "the doubled max-load candidate always qualifies"
            );
        }
        fast_path
    };
    if search == ThresholdSearch::Select && !fast_path {
        rec.incr(names::MPARTITION_SELECT_FALLBACKS, 1);
    }
    let cands = &mut candidates[..];

    let mut probes = 0usize;
    let mut feasible = |t: Size, probes: &mut usize| -> Result<bool> {
        *probes += 1;
        work.charge(names::MPARTITION_SEARCH, 1)?;
        Ok(matches!(
            partition::planned_moves_with(profiles, t, &mut pscratch.cs),
            Some(moves) if moves <= k
        ))
    };

    let search_timer = rec.time(names::MPARTITION_SEARCH);
    let found = match search {
        ThresholdSearch::Select if fast_path => {
            // More than k large-free prefix sums: every guess below the
            // (k+1)-th largest, v, plans more than k moves, and v plans at
            // most k. The answer is v, or the ladder's first rung when v
            // lies below the average-load floor (see DESIGN.md §5).
            work.charge(names::MPARTITION_SEARCH, 1)?;
            let v = *cands.select_nth_unstable_by(k, |a, b| b.cmp(a)).1;
            Some(if v >= floor {
                v
            } else {
                profiles.first_rung(floor).unwrap_or(v)
            })
        }
        ThresholdSearch::Scan => {
            let mut found = None;
            for &t in cands.iter() {
                if feasible(t, &mut probes)? {
                    found = Some(t);
                    break;
                }
            }
            found
        }
        ThresholdSearch::Incremental => {
            let mut scan = crate::incremental::IncrementalScan::new(profiles, cands).ok_or(
                Error::InfeasibleGuess {
                    guess: 0,
                    reason: "no candidate thresholds",
                },
            )?;
            match scan.first_feasible(k) {
                Some((t, visited)) => {
                    probes += visited;
                    work.charge(names::MPARTITION_SEARCH, visited as u64)?;
                    Some(t)
                }
                None => None,
            }
        }
        ThresholdSearch::Binary | ThresholdSearch::Select => {
            // partition_point over "still infeasible".
            let (mut lo, mut hi) = (0usize, cands.len());
            while lo < hi {
                let mid = (lo + hi) / 2;
                if feasible(cands[mid], &mut probes)? {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            cands.get(lo).copied()
        }
    };
    drop(search_timer);

    if !fast_path {
        // Every probe evaluated one candidate threshold; the rest of the
        // ladder was never touched by this search strategy.
        rec.incr(names::MPARTITION_CANDIDATES_TOTAL, cands.len() as u64);
        rec.incr(names::MPARTITION_CANDIDATES_EXAMINED, probes as u64);
        rec.incr(
            names::MPARTITION_CANDIDATES_SKIPPED,
            cands.len().saturating_sub(probes) as u64,
        );
    }

    let Some(t) = found else {
        // Cannot happen: the largest candidate always plans zero moves.
        return Err(Error::InfeasibleGuess {
            guess: cands.last().copied().unwrap_or(0),
            reason: "no feasible threshold found",
        });
    };

    work.charge(names::MPARTITION_PARTITION, inst.num_jobs() as u64)?;
    let run = {
        let _t = rec.time(names::MPARTITION_PARTITION);
        partition::run_impl(inst, profiles, t, rec, pscratch)?
    };
    debug_assert!(run.stats.planned_moves <= k);

    // No-regression clamp: if the initial assignment was already at least as
    // good, keep it (PARTITION never promises to beat the status quo; see
    // the Theorem 2 tightness example where it must not move anything).
    Ok(MPartitionRun {
        outcome: run.outcome.clamp_to_initial(inst),
        threshold: t,
        stats: run.stats,
        probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::within_ratio;
    use crate::profiles::Profiles;

    #[test]
    fn all_searches_agree_on_threshold() {
        let inst = Instance::from_sizes(&[9, 7, 5, 4, 3, 2, 1, 8], vec![0, 0, 0, 0, 1, 1, 2, 2], 3)
            .unwrap();
        for k in 0..=8 {
            let scan = rebalance_with(&inst, k, ThresholdSearch::Scan).unwrap();
            let inc = rebalance_with(&inst, k, ThresholdSearch::Incremental).unwrap();
            let bin = rebalance_with(&inst, k, ThresholdSearch::Binary).unwrap();
            let sel = rebalance_with(&inst, k, ThresholdSearch::Select).unwrap();
            assert_eq!(scan.threshold, bin.threshold, "k={k}");
            assert_eq!(scan.threshold, inc.threshold, "k={k}");
            assert_eq!(sel.threshold, bin.threshold, "k={k}");
            assert_eq!(sel.stats, bin.stats, "k={k}");
            assert_eq!(sel.outcome.assignment(), bin.outcome.assignment(), "k={k}");
            assert_eq!(scan.outcome.makespan(), bin.outcome.makespan(), "k={k}");
            assert_eq!(scan.outcome.makespan(), inc.outcome.makespan(), "k={k}");
        }
    }

    #[test]
    fn binary_uses_fewer_probes_than_scan_on_tight_budgets() {
        // With k = 0 the scan walks most of the candidate list; the binary
        // search takes O(log) probes.
        let sizes: Vec<u64> = (1..=40).collect();
        let initial = vec![0usize; 40];
        let inst = Instance::from_sizes(&sizes, initial, 4).unwrap();
        let scan = rebalance_with(&inst, 0, ThresholdSearch::Scan).unwrap();
        let bin = rebalance_with(&inst, 0, ThresholdSearch::Binary).unwrap();
        assert!(
            bin.probes < scan.probes,
            "binary {} vs scan {}",
            bin.probes,
            scan.probes
        );
    }

    /// `Select` reads the threshold off the prefix sums when more than `k`
    /// of them exceed `2·p_max` (no probe, no ladder counted), and falls
    /// back to the ladder and binary search otherwise.
    #[test]
    fn select_fast_path_and_fallback_are_counted() {
        use lrb_obs::AtomicRecorder;
        // One processor holds 1..=8 (p_max = 8): prefix sums 1, 3, 6, …, 36,
        // of which 21, 28 and 36 exceed 16.
        let sizes: Vec<u64> = (1..=8).collect();
        let inst = Instance::from_sizes(&sizes, vec![0; 8], 4).unwrap();
        for (k, fast) in [(0, true), (2, true), (3, false), (8, false)] {
            let rec = AtomicRecorder::new();
            let mut scratch = Scratch::new();
            let sel =
                rebalance_scratch_recorded(&inst, k, ThresholdSearch::Select, &rec, &mut scratch)
                    .unwrap();
            let bin = rebalance_with(&inst, k, ThresholdSearch::Binary).unwrap();
            assert_eq!(sel.threshold, bin.threshold, "k={k}");
            assert_eq!(sel.outcome.assignment(), bin.outcome.assignment(), "k={k}");
            let snap = rec.snapshot();
            let fallbacks = snap.counter(names::MPARTITION_SELECT_FALLBACKS);
            let total = snap.counter(names::MPARTITION_CANDIDATES_TOTAL);
            assert_eq!(sel.probes == 0, fast, "k={k}");
            assert_eq!(fallbacks, (!fast).then_some(1), "k={k}");
            assert_eq!(total.is_some(), !fast, "k={k}");
            for phase in [names::MPARTITION_LADDER_BUILD, names::MPARTITION_SEARCH] {
                assert_eq!(snap.phase(phase).map(|p| p.calls), Some(1), "k={k}");
            }
        }
    }

    #[test]
    fn respects_move_budget() {
        let inst = Instance::from_sizes(&[10, 9, 8, 7, 1, 1], vec![0, 0, 0, 0, 1, 2], 3).unwrap();
        for k in 0..=6 {
            let run = rebalance(&inst, k).unwrap();
            assert!(
                run.outcome.moves() <= k,
                "k={k} moves={}",
                run.outcome.moves()
            );
        }
    }

    #[test]
    fn k_zero_changes_nothing() {
        let inst = Instance::from_sizes(&[5, 5, 5], vec![0, 0, 0], 3).unwrap();
        let run = rebalance(&inst, 0).unwrap();
        assert_eq!(run.outcome.moves(), 0);
        assert_eq!(run.outcome.makespan(), inst.initial_makespan());
    }

    #[test]
    fn full_budget_balances_piled_jobs() {
        let inst = Instance::from_sizes(&[6, 6, 6, 6, 6, 6], vec![0, 0, 0, 0, 0, 0], 3).unwrap();
        let run = rebalance(&inst, 6).unwrap();
        // OPT = 12 (two jobs per processor); 1.5 bound allows 18 but the
        // greedy reassignment should land at 12 here.
        assert_eq!(run.outcome.makespan(), 12);
    }

    #[test]
    fn ratio_bound_against_known_opt() {
        // Instances small enough to reason OPT by hand.
        // {4,3,3,2} piled on one of two processors, k=2 -> OPT=6.
        let inst = Instance::from_sizes(&[4, 3, 3, 2], vec![0, 0, 0, 0], 2).unwrap();
        let run = rebalance(&inst, 2).unwrap();
        assert!(within_ratio(run.outcome.makespan(), 6, 3, 2));
        assert!(
            run.threshold <= 6,
            "Lemma 6: final threshold {} <= OPT 6",
            run.threshold
        );
    }

    #[test]
    fn paper_tightness_ratio_is_exactly_1_5() {
        // {1,2} and {1} on two processors, k=1, OPT=2: M-PARTITION makes no
        // moves and stays at makespan 3.
        let inst = Instance::from_sizes(&[1, 2, 1], vec![0, 0, 1], 2).unwrap();
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.outcome.makespan(), 3);
        assert_eq!(run.outcome.moves(), 0);
    }

    #[test]
    fn clamp_never_worse_than_initial() {
        let inst = Instance::from_sizes(&[3, 3, 4, 2], vec![0, 1, 1, 0], 2).unwrap();
        for k in 0..=4 {
            let run = rebalance(&inst, k).unwrap();
            assert!(run.outcome.makespan() <= inst.initial_makespan(), "k={k}");
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = rebalance(&inst, 3).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }

    #[test]
    fn budgeted_run_cancels_and_matches_unbudgeted() {
        let inst = Instance::from_sizes(&[10, 9, 8, 7, 1, 1], vec![0, 0, 0, 0, 1, 2], 3).unwrap();
        for search in [
            ThresholdSearch::Scan,
            ThresholdSearch::Incremental,
            ThresholdSearch::Binary,
            ThresholdSearch::Select,
        ] {
            let err = rebalance_budgeted(&inst, 2, search, &WorkBudget::new(1)).unwrap_err();
            assert!(matches!(err, Error::Cancelled { .. }), "{search:?}");

            let budgeted = rebalance_budgeted(&inst, 2, search, &WorkBudget::unlimited()).unwrap();
            let plain = rebalance_with(&inst, 2, search).unwrap();
            assert_eq!(
                budgeted.outcome.assignment(),
                plain.outcome.assignment(),
                "{search:?}"
            );
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_and_caches_ladder() {
        let base = Instance::from_sizes(&[9, 7, 5, 4, 3, 2, 1, 8], vec![0, 0, 0, 0, 1, 1, 2, 2], 3)
            .unwrap();
        // Same job multiset, different placement: must hit the ladder cache.
        let alt = Instance::from_sizes(&[9, 7, 5, 4, 3, 2, 1, 8], vec![2, 1, 0, 2, 1, 0, 0, 1], 3)
            .unwrap();
        // Different multiset (and shape): must invalidate it.
        let other = Instance::from_sizes(&[6, 6, 5], vec![0, 0, 1], 2).unwrap();
        let mut scratch = crate::scratch::Scratch::new();
        for inst in [&base, &alt, &base, &other] {
            for k in 0..=4 {
                let fresh = rebalance(inst, k).unwrap();
                let reused = rebalance_scratch(inst, k, &mut scratch).unwrap();
                assert_eq!(fresh.threshold, reused.threshold, "k={k}");
                assert_eq!(fresh.probes, reused.probes, "k={k}");
                assert_eq!(
                    fresh.outcome.assignment(),
                    reused.outcome.assignment(),
                    "k={k}"
                );
                let built = Profiles::new(inst);
                assert_eq!(scratch.profiles().candidates(), built.candidates());
                for p in 0..inst.num_procs() {
                    assert_eq!(scratch.profiles().proc(p).jobs_asc, built.proc(p).jobs_asc);
                }
            }
        }
        // One miss per new multiset (`base`, `other`); every other solve,
        // `alt` included, reuses the cached job order.
        assert_eq!(scratch.ladder_hits(), 18);
        assert_eq!(scratch.ladder_misses(), 2);
    }

    /// Sizes and prefix sums at the top of `u64`, where a doubled size or
    /// prefix sum does not fit: every search returns a valid outcome, or a
    /// typed error when a processor's load itself does not fit, and never
    /// overflows (the test profile checks).
    #[test]
    fn near_max_sizes_never_overflow() {
        const MAX: u64 = u64::MAX;
        let cases: [(&[u64], &[usize], usize); 10] = [
            (&[1 << 63, 1], &[0, 0], 2),
            (&[MAX], &[0], 2),
            (&[MAX - 1, 1], &[0, 0], 2),
            (&[1 << 63, (1 << 63) - 1], &[0, 0], 3),
            (&[MAX / 2, MAX / 2, 1], &[0, 0, 0], 2),
            (&[MAX / 2, MAX / 2, 1], &[0, 1, 1], 3),
            (&[MAX / 3, MAX / 3, MAX / 3, 1], &[0, 0, 0, 0], 3),
            (&[MAX - 3, 3, 1], &[0, 0, 1], 2),
            (&[MAX - 3, MAX - 3, 1], &[0, 0, 1], 2),
            (
                &[1 << 62, 1 << 62, 1 << 62, 1 << 62, 5],
                &[0, 0, 0, 0, 1],
                2,
            ),
        ];
        for (sizes, initial, m) in cases {
            let inst = Instance::from_sizes(sizes, initial.to_vec(), m).unwrap();
            let overflow = (0..m).find(|&p| {
                let mut on_p = sizes.iter().zip(initial).filter(|&(_, &q)| q == p);
                on_p.try_fold(0u64, |acc, (&s, _)| acc.checked_add(s))
                    .is_none()
            });
            for k in 0..=sizes.len() {
                for search in [
                    ThresholdSearch::Scan,
                    ThresholdSearch::Incremental,
                    ThresholdSearch::Binary,
                    ThresholdSearch::Select,
                ] {
                    let ctx = format!("{sizes:?} on {initial:?}, m={m}, k={k}, {search:?}");
                    let run = rebalance_with(&inst, k, search);
                    if let Some(proc) = overflow {
                        assert_eq!(run.unwrap_err(), Error::LoadOverflow { proc }, "{ctx}");
                        continue;
                    }
                    let out = &run.unwrap().outcome;
                    assert!(out.moves() <= k, "{ctx}");
                    assert_eq!(
                        Ok(out.makespan()),
                        inst.makespan_of(out.assignment()),
                        "{ctx}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_job() {
        let inst = Instance::from_sizes(&[7], vec![0], 3).unwrap();
        let run = rebalance(&inst, 1).unwrap();
        assert_eq!(run.outcome.makespan(), 7);
        assert_eq!(run.outcome.moves(), 0);
    }
}

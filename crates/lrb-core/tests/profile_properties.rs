//! Property tests for the threshold machinery (`profiles`), checking the
//! `O(log n)` prefix-sum implementations against brute-force restatements
//! of the paper's definitions.

use lrb_core::model::Instance;
use lrb_core::profiles::Profiles;
use proptest::collection::vec;
use proptest::prelude::*;

fn instance_and_guess() -> impl Strategy<Value = (Instance, u64)> {
    (1usize..=4).prop_flat_map(|m| {
        (1usize..=10).prop_flat_map(move |n| {
            (vec(1u64..=60, n), vec(0usize..m, n), 1u64..=200).prop_map(
                move |(sizes, initial, t)| (Instance::from_sizes(&sizes, initial, m).unwrap(), t),
            )
        })
    })
}

/// Brute force small count: the jobs on `p` with `2·size ≤ t`.
fn brute_small_count(inst: &Instance, p: usize, t: u64) -> usize {
    (0..inst.num_jobs())
        .filter(|&j| inst.initial_proc(j) == p && 2 * inst.size(j) <= t)
        .count()
}

/// Brute force `a_i`: try every removal count r, removing the r largest
/// small jobs, until the remaining small total fits t/2.
fn brute_a(inst: &Instance, p: usize, t: u64) -> usize {
    let mut smalls: Vec<u64> = (0..inst.num_jobs())
        .filter(|&j| inst.initial_proc(j) == p && 2 * inst.size(j) <= t)
        .map(|j| inst.size(j))
        .collect();
    smalls.sort_unstable();
    for r in 0..=smalls.len() {
        let kept: u64 = smalls[..smalls.len() - r].iter().sum();
        if 2 * kept <= t {
            return r;
        }
    }
    unreachable!("removing everything always fits");
}

/// Brute force `b_i` (forced variant): one removal for a present large job
/// plus largest-first small removals until the small total fits t.
fn brute_b(inst: &Instance, p: usize, t: u64) -> usize {
    let mut smalls: Vec<u64> = Vec::new();
    let mut has_large = false;
    for j in 0..inst.num_jobs() {
        if inst.initial_proc(j) == p {
            if 2 * inst.size(j) > t {
                has_large = true;
            } else {
                smalls.push(inst.size(j));
            }
        }
    }
    smalls.sort_unstable();
    for r in 0..=smalls.len() {
        let kept: u64 = smalls[..smalls.len() - r].iter().sum();
        if kept <= t {
            return r + usize::from(has_large);
        }
    }
    unreachable!("removing everything always fits");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn a_matches_brute_force((inst, t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        for p in 0..inst.num_procs() {
            prop_assert_eq!(profiles.proc(p).eval(t).1, brute_a(&inst, p, t), "p={} t={}", p, t);
        }
    }

    #[test]
    fn b_matches_brute_force((inst, t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        for p in 0..inst.num_procs() {
            prop_assert_eq!(profiles.proc(p).eval(t).2, brute_b(&inst, p, t), "p={} t={}", p, t);
        }
    }

    #[test]
    fn l_t_counts_large_jobs((inst, t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        let brute = inst.jobs().iter().filter(|j| 2 * j.size > t).count();
        prop_assert_eq!(profiles.l_t(t), brute);
        let m_l_brute = (0..inst.num_procs())
            .filter(|&p| {
                (0..inst.num_jobs())
                    .any(|j| inst.initial_proc(j) == p && 2 * inst.size(j) > t)
            })
            .count();
        let m_l = (0..inst.num_procs())
            .filter(|&p| profiles.proc(p).eval(t).0 < profiles.proc(p).len())
            .count();
        prop_assert_eq!(m_l, m_l_brute);
    }

    /// The single-pass evaluation equals the brute-force small count,
    /// `a_i` and `b_i` at every candidate threshold and one either side —
    /// where the three quantities step.
    #[test]
    fn eval_matches_brute_force_around_candidates((inst, _t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        for c in profiles.candidates() {
            for t in [c.saturating_sub(1), c, c + 1] {
                for p in 0..inst.num_procs() {
                    prop_assert_eq!(
                        profiles.proc(p).eval(t),
                        (
                            brute_small_count(&inst, p, t),
                            brute_a(&inst, p, t),
                            brute_b(&inst, p, t),
                        ),
                        "p={} t={}", p, t
                    );
                }
            }
        }
    }

    /// M-PARTITION's ladder cut at a floor is the full candidate list from
    /// the last candidate below the floor on (the first one if none is).
    #[test]
    fn ladder_is_the_candidate_suffix_from_the_floor((inst, t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        let all = profiles.candidates();
        let mut ladder = Vec::new();
        for floor in [0, t, inst.avg_load_ceil(), all.last().map_or(0, |&c| c + 1)] {
            profiles.ladder_into(floor, &mut ladder);
            let start = all.partition_point(|&c| c < floor).saturating_sub(1);
            prop_assert_eq!(&ladder[..], &all[start..], "floor={}", floor);
        }
    }

    /// Lemma 5 as a property: between consecutive candidate thresholds,
    /// every quantity is constant.
    #[test]
    fn quantities_constant_between_candidates((inst, _t) in instance_and_guess()) {
        let profiles = Profiles::new(&inst);
        let cands = profiles.candidates();
        for w in cands.windows(2) {
            if w[1] - w[0] >= 2 {
                let (lo, mid) = (w[0], w[0] + (w[1] - w[0]) / 2);
                prop_assert_eq!(profiles.l_t(lo), profiles.l_t(mid));
                for p in 0..inst.num_procs() {
                    prop_assert_eq!(profiles.proc(p).eval(lo), profiles.proc(p).eval(mid));
                }
            }
        }
    }

    /// The per-processor counters are *not* individually monotone in `t`
    /// (a job flipping from large to small adds small volume, which can
    /// push `a_i` up) — but the total planned move count, the quantity the
    /// binary threshold search relies on, is empirically non-increasing
    /// across the candidate grid. This property is that empirical claim.
    #[test]
    fn planned_moves_monotone_over_candidates((inst, _t) in instance_and_guess()) {
        use lrb_core::partition::planned_moves;
        let profiles = Profiles::new(&inst);
        let mut prev = usize::MAX;
        for &t in profiles.candidates().iter() {
            if let Some(moves) = planned_moves(&profiles, t) {
                prop_assert!(
                    moves <= prev,
                    "planned moves rose from {} to {} at t={}",
                    prev, moves, t
                );
                prev = moves;
            }
        }
        // The largest candidate always needs zero moves.
        prop_assert_eq!(prev, 0);
    }
}

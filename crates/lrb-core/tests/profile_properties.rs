//! Property tests for the threshold machinery (`profiles`), checking the
//! `O(log n)` prefix-sum implementations against brute-force restatements
//! of the paper's definitions, and the profiles a reused [`Scratch`] builds
//! against fresh ones.

use lrb_core::model::Instance;
use lrb_core::mpartition;
use lrb_core::profiles::Profiles;
use lrb_core::scratch::Scratch;
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

/// Planned moves at `t` restated from [`ProcProfile::eval`] on every
/// processor, with a full sort for the `L_T` cheapest selections: the
/// general path, with no large-free shortcut.
///
/// [`ProcProfile::eval`]: lrb_core::profiles::ProcProfile::eval
fn reference_planned_moves(profiles: &Profiles, t: u64) -> Option<usize> {
    let m = profiles.num_procs();
    let evals: Vec<(usize, usize, usize)> = (0..m).map(|p| profiles.proc(p).eval(t)).collect();
    let l_t: usize = (0..m).map(|p| profiles.proc(p).len() - evals[p].0).sum();
    if l_t > m {
        return None;
    }
    let m_l = (0..m)
        .filter(|&p| evals[p].0 < profiles.proc(p).len())
        .count();
    let mut ranked: Vec<(i64, bool, usize)> = (0..m)
        .map(|p| {
            let (sc, a, b) = evals[p];
            (a as i64 - b as i64, sc == profiles.proc(p).len(), p)
        })
        .collect();
    ranked.sort_unstable();
    let selected_a: usize = ranked[..l_t].iter().map(|&(_, _, p)| evals[p].1).sum();
    let unselected_b: usize = ranked[l_t..].iter().map(|&(_, _, p)| evals[p].2).sum();
    Some(l_t - m_l + selected_a + unselected_b)
}

/// Where [`ThresholdSearch::Select`] settles, by brute force.
///
/// [`ThresholdSearch::Select`]: lrb_core::mpartition::ThresholdSearch::Select
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SelectRegime {
    /// More than `k` prefix sums exceed `2·p_max`; the (k+1)-th largest,
    /// `v`, is at or above the average-load floor.
    AtV,
    /// As [`AtV`](Self::AtV), but `v` is below the floor.
    BelowFloor,
    /// At most `k` prefix sums exceed `2·p_max`: the ladder and binary
    /// search run.
    Fallback,
}

/// Check `Select` against a scan of the eval-based reference plan over
/// `candidates()` cut at the average load, for every `k` from 0 to
/// `n + 1` (so `k ≥ n` and both sides of the fallback boundary are
/// covered). Returns the regime of each `k`.
fn check_select(inst: &Instance) -> Vec<SelectRegime> {
    use lrb_core::mpartition::{rebalance_with, ThresholdSearch};
    let profiles = Profiles::new(inst);
    let all = profiles.candidates();
    let floor = inst.avg_load_ceil();
    let ladder = &all[all.partition_point(|&c| c < floor).saturating_sub(1)..];
    let p_max = inst.jobs().iter().map(|j| j.size).max().unwrap_or(0);
    let mut above: Vec<u64> = (0..inst.num_procs())
        .flat_map(|p| profiles.proc(p).prefix[1..].to_vec())
        .filter(|&s| s > 2 * p_max)
        .collect();
    above.sort_unstable_by(|a, b| b.cmp(a));
    (0..=inst.num_jobs() + 1)
        .map(|k| {
            let want = ladder
                .iter()
                .copied()
                .find(|&t| matches!(reference_planned_moves(&profiles, t), Some(m) if m <= k));
            let run = rebalance_with(inst, k, ThresholdSearch::Select).unwrap();
            assert_eq!(Some(run.threshold), want, "k={k} on {inst:?}");
            let regime = match above.get(k) {
                None => SelectRegime::Fallback,
                Some(&v) if v >= floor => SelectRegime::AtV,
                Some(_) => SelectRegime::BelowFloor,
            };
            assert_eq!(
                run.probes == 0,
                regime != SelectRegime::Fallback,
                "k={k} on {inst:?}"
            );
            regime
        })
        .collect()
}

/// A seeded sweep of [`check_select`] that must meet all three regimes.
#[test]
fn select_sweep_covers_every_regime() {
    let mut seen = Vec::new();
    for seed in 0..400u64 {
        let m = 1 + (mix(seed) % 4) as usize;
        let n = 1 + (mix(seed ^ 1) % 10) as usize;
        let max_size = [3u64, 60][(seed % 2) as usize];
        let sizes: Vec<u64> = (0..n)
            .map(|j| 1 + mix(seed << 8 | j as u64) % max_size)
            .collect();
        let initial: Vec<usize> = (0..n)
            .map(|j| (mix(seed << 16 | j as u64) % m as u64) as usize)
            .collect();
        let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
        for regime in check_select(&inst) {
            if !seen.contains(&regime) {
                seen.push(regime);
            }
        }
    }
    assert_eq!(seen.len(), 3, "regimes seen: {seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `Select`'s threshold is the first rung of the ladder cut at the
    /// average load whose reference plan fits `k`, for every `k`, and it
    /// probes nothing exactly when more than `k` prefix sums exceed
    /// `2·p_max`.
    #[test]
    fn select_matches_the_reference_scan((inst, _t) in instance_and_guess()) {
        check_select(&inst);
    }

    /// At every candidate and one either side, the planned move count
    /// equals the eval-based reference, whether or not a large job is left
    /// (low candidates have some, the top ones none), and on every
    /// processor holding no large job the one-search `b_i` equals `eval`'s.
    #[test]
    fn large_free_path_matches_eval((inst, _t) in instance_and_guess()) {
        use lrb_core::partition::planned_moves;
        let profiles = Profiles::new(&inst);
        let cands = profiles.candidates();
        prop_assert!(profiles.l_t(cands[0]) > 0);
        prop_assert_eq!(profiles.l_t(*cands.last().unwrap()), 0);
        for &c in &cands {
            for t in [c.saturating_sub(1), c, c + 1] {
                prop_assert_eq!(
                    planned_moves(&profiles, t),
                    reference_planned_moves(&profiles, t),
                    "t={}", t
                );
                for p in 0..inst.num_procs() {
                    let prof = profiles.proc(p);
                    let (sc, _, b) = prof.eval(t);
                    prop_assert_eq!(prof.has_large(t), sc < prof.len(), "p={} t={}", p, t);
                    if sc == prof.len() {
                        prop_assert_eq!(prof.b_large_free(t), b, "p={} t={}", p, t);
                    }
                }
            }
        }
    }

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

/// splitmix64: turns a step's payload into independent choices.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of a scratch-reuse sequence, applied to the job sizes and
/// placement of the previous instance.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The same job vector under a new placement.
    Replace,
    /// The same multiset with the job vector permuted.
    Permute,
    /// The largest job (last in `(size, id)` order) grows: the sorted job
    /// order is unchanged but the multiset is not.
    GrowLargest,
    /// One job takes a new size (possibly its old one).
    Resize,
    /// One job arrives or departs.
    Recount,
}

const STEPS: [Step; 5] = [
    Step::Replace,
    Step::Permute,
    Step::GrowLargest,
    Step::Resize,
    Step::Recount,
];

fn sorted(sizes: &[u64]) -> Vec<u64> {
    let mut v = sizes.to_vec();
    v.sort_unstable();
    v
}

/// Solve `inst` on the reused `scratch` and require its profiles to equal a
/// fresh build, its answer to equal a fresh solve, and its ladder counters
/// to follow the multiset model: a solve is a hit iff its sorted sizes equal
/// the `cached` ones (the previous solve's).
fn check_reuse(scratch: &mut Scratch, cached: &mut Option<Vec<u64>>, inst: &Instance, k: usize) {
    let sizes: Vec<u64> = inst.jobs().iter().map(|j| j.size).collect();
    let hit = cached.as_deref() == Some(&sorted(&sizes)[..]);
    let (hits, misses) = (scratch.ladder_hits(), scratch.ladder_misses());
    let reused = mpartition::rebalance_scratch(inst, k, scratch).unwrap();
    *cached = Some(sorted(&sizes));
    assert_eq!(
        (
            scratch.ladder_hits() - hits,
            scratch.ladder_misses() - misses
        ),
        (u64::from(hit), u64::from(!hit)),
        "hit expected: {hit}, sizes {sizes:?}"
    );
    let fresh = mpartition::rebalance(inst, k).unwrap();
    assert_eq!(reused.threshold, fresh.threshold);
    assert_eq!(reused.outcome.assignment(), fresh.outcome.assignment());
    let (got, want) = (scratch.profiles(), Profiles::new(inst));
    assert_eq!(got.num_procs(), want.num_procs());
    for p in 0..inst.num_procs() {
        assert_eq!(got.proc(p).jobs_asc, want.proc(p).jobs_asc, "p={p}");
        assert_eq!(got.proc(p).prefix, want.proc(p).prefix, "p={p}");
    }
    let cands = want.candidates();
    assert_eq!(got.candidates(), cands);
    for &c in &cands {
        for t in [c.saturating_sub(1), c, c + 1] {
            assert_eq!(got.l_t(t), want.l_t(t), "t={t}");
        }
    }
}

/// Drive one scratch from `seed_sizes` (sizes `1..=max_size`) on `m`
/// processors through `steps`, checking every solve with [`check_reuse`].
fn run_sequence(max_size: u64, m: usize, seed_sizes: &[u64], steps: &[(usize, u64)]) {
    let mut sizes: Vec<u64> = seed_sizes.iter().map(|&x| 1 + x % max_size).collect();
    let mut initial: Vec<usize> = (0..sizes.len()).map(|j| j % m).collect();
    let mut scratch = Scratch::new();
    let mut cached = None;
    let inst = Instance::from_sizes(&sizes, initial.clone(), m).unwrap();
    check_reuse(&mut scratch, &mut cached, &inst, sizes.len() / 4);
    for &(kind, x) in steps {
        let n = sizes.len();
        let pick = (mix(x) % n as u64) as usize;
        match STEPS[kind] {
            Step::Replace => {
                for (j, p) in initial.iter_mut().enumerate() {
                    *p = (mix(x.wrapping_add(j as u64)) % m as u64) as usize;
                }
            }
            Step::Permute => {
                for i in (1..n).rev() {
                    let j = (mix(x ^ i as u64) % (i as u64 + 1)) as usize;
                    sizes.swap(i, j);
                    initial.swap(i, j);
                }
            }
            Step::GrowLargest => {
                let largest = (0..n).max_by_key(|&j| (sizes[j], j)).unwrap();
                sizes[largest] += 1 + x % 3;
            }
            Step::Resize => sizes[pick] = 1 + mix(x ^ 1) % max_size,
            Step::Recount => {
                if n == 1 || x % 2 == 0 {
                    sizes.push(1 + mix(x ^ 2) % max_size);
                    initial.push(pick % m);
                } else {
                    sizes.remove(pick);
                    initial.remove(pick);
                }
            }
        }
        let inst = Instance::from_sizes(&sizes, initial.clone(), m).unwrap();
        check_reuse(
            &mut scratch,
            &mut cached,
            &inst,
            x as usize % (sizes.len() + 1),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// One scratch driven through a sequence of related instances builds
    /// exactly the profiles a fresh build does, and counts a ladder hit
    /// exactly when the job-size multiset is the cached one. Sizes in
    /// `1..=3` make ties common.
    #[test]
    fn reused_scratch_matches_fresh_profiles(
        (max_size, m, seed_sizes, steps) in (
            (0u8..2).prop_map(|b| if b == 0 { 3u64 } else { 60 }),
            1usize..=4,
            vec(0u64..=u64::MAX, 1..=12),
            vec((0usize..STEPS.len(), 0u64..=u64::MAX), 1..=10),
        )
    ) {
        run_sequence(max_size, m, &seed_sizes, &steps);
    }
}

/// `[1, 2, 3]` and `[1, 2, 5]` sort their jobs identically, yet the second
/// is a new multiset: it must miss, and its profiles must see size 5. The
/// permuted `[3, 2, 1]` is a new multiset too (after `[1, 2, 5]`), and the
/// `[1, 2, 3]` after it is a hit with a re-sorted order.
#[test]
fn changed_size_with_unchanged_order_misses() {
    let mut scratch = Scratch::new();
    let mut cached = None;
    for sizes in [[1, 2, 3], [1, 2, 3], [1, 2, 5], [3, 2, 1], [1, 2, 3]] {
        let inst = Instance::from_sizes(&sizes, vec![0, 1, 0], 2).unwrap();
        check_reuse(&mut scratch, &mut cached, &inst, 1);
    }
    assert_eq!((scratch.ladder_hits(), scratch.ladder_misses()), (2, 3));
    assert_eq!(scratch.profiles().proc(0).prefix, vec![0, 1, 4]);
}

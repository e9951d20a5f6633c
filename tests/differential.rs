//! Differential certification against the exact oracle.
//!
//! Every instance in two enumerated families is solved by the approximation
//! algorithms *and* by `lrb-exact`, and the paper's guarantees are asserted
//! as exact integer inequalities on each one:
//!
//! * GREEDY ≤ (2 − 1/m)·OPT_k   (Theorem 1), checked as
//!   `m·greedy ≤ (2m − 1)·opt`;
//! * M-PARTITION ≤ 1.5·OPT_k    (Theorem 3), checked as
//!   `2·mp ≤ 3·opt`, plus the Lemma 6 threshold bound `threshold ≤ opt`;
//! * PARTITION at guess `t` plans no more moves than the *cheapest* exact
//!   solution of makespan ≤ t (Theorem 2), via `lrb-exact::move_min`.
//!
//! On every cell of both families the default threshold search must also
//! settle on the binary search's threshold, `PartitionStats` and
//! assignment, and some cells of each must take its selection fast path.
//!
//! Family A is fully exhaustive at the small end (every size multiset over
//! {1,2,3}, every placement, every budget). Family B pushes to the n ≤ 10,
//! m = 4 oracle limit with canonical set-partition placements (restricted
//! growth strings), strided to keep the suite inside a few seconds.

use load_rebalance::core::model::{Budget, Instance, Job};
use load_rebalance::core::mpartition::ThresholdSearch;
use load_rebalance::core::profiles::Profiles;
use load_rebalance::core::{cost_partition, greedy, mpartition, partition};
use load_rebalance::exact;

/// All non-decreasing size multisets of length `n` over `1..=max_size`.
fn size_multisets(n: usize, max_size: u64) -> Vec<Vec<u64>> {
    fn rec(n: usize, lo: u64, hi: u64, cur: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        if n == 0 {
            out.push(cur.clone());
            return;
        }
        for s in lo..=hi {
            cur.push(s);
            rec(n - 1, s, hi, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(n, 1, max_size, &mut Vec::new(), &mut out);
    out
}

/// All placements of `n` jobs on `m` processors (m^n of them).
fn all_placements(n: usize, m: usize) -> Vec<Vec<usize>> {
    let mut out = vec![vec![]];
    for _ in 0..n {
        out = out
            .into_iter()
            .flat_map(|p| {
                (0..m).map(move |q| {
                    let mut p = p.clone();
                    p.push(q);
                    p
                })
            })
            .collect();
    }
    out
}

/// Canonical set-partition placements via restricted growth strings with at
/// most `m` blocks, taking every `stride`-th one to bound the count.
fn rgs_placements(n: usize, m: usize, stride: usize) -> Vec<Vec<usize>> {
    fn rec(n: usize, max_next: usize, m: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for q in 0..=max_next.min(m - 1) {
            cur.push(q);
            rec(n, max_next.max(q + 1), m, cur, out);
            cur.pop();
        }
    }
    let mut all = Vec::new();
    rec(n, 0, m, &mut Vec::new(), &mut all);
    all.into_iter().step_by(stride.max(1)).collect()
}

/// Assert every certified bound on one (instance, budget) cell, and that
/// the default threshold search settles exactly where the binary search
/// does. Returns whether the default took its selection fast path (no
/// probe).
fn certify(inst: &Instance, k: usize) -> bool {
    let m = inst.num_procs() as u64;
    let opt = exact::optimal_makespan_moves(inst, k);

    // Theorem 1: m·GREEDY ≤ (2m − 1)·OPT, in exact integers.
    let g = greedy::rebalance(inst, k).expect("greedy solves every instance");
    assert!(g.moves() <= k, "greedy over budget on {inst:?} k={k}");
    assert!(
        m * g.makespan() <= (2 * m - 1) * opt,
        "greedy ratio violated: {} > (2 - 1/{m})·{opt} on {inst:?} k={k}",
        g.makespan(),
    );

    // Theorem 3 + Lemma 6: 2·M-PARTITION ≤ 3·OPT and threshold ≤ OPT.
    let mp = mpartition::rebalance(inst, k).expect("m-partition solves every instance");
    assert!(mp.outcome.moves() <= k, "m-partition over budget");
    assert!(
        2 * mp.outcome.makespan() <= 3 * opt,
        "1.5 ratio violated: {} > 1.5·{opt} on {inst:?} k={k}",
        mp.outcome.makespan(),
    );
    assert!(
        mp.threshold <= opt,
        "Lemma 6 violated: threshold {} > OPT {opt} on {inst:?} k={k}",
        mp.threshold,
    );

    // The default search is bit-identical to the binary search.
    let bin = mpartition::rebalance_with(inst, k, ThresholdSearch::Binary)
        .expect("m-partition solves every instance");
    let ctx = format!("default vs binary on {inst:?} k={k}");
    assert_eq!(mp.threshold, bin.threshold, "{ctx}");
    assert_eq!(mp.stats, bin.stats, "{ctx}");
    assert_eq!(mp.outcome.assignment(), bin.outcome.assignment(), "{ctx}");
    mp.probes == 0
}

/// Theorem 2 (move minimality): at every candidate threshold `t` that some
/// exact solution achieves, PARTITION's plan uses no more moves than the
/// cheapest such solution — and its realized makespan stays within 1.5·t.
fn certify_move_minimality(inst: &Instance) {
    let profiles = Profiles::new(inst);
    for t in profiles.candidates() {
        let planned = partition::planned_moves(&profiles, t);
        let exact_min = exact::move_min::min_moves_to_achieve(inst, t);
        match (planned, exact_min) {
            (Some(pm), Some((mm, _))) => {
                assert!(
                    pm <= mm,
                    "Theorem 2 violated at t={t}: PARTITION plans {pm} moves, \
                     exact needs only {mm} on {inst:?}",
                );
                let run = partition::run(inst, t).expect("feasible guess runs");
                assert!(
                    2 * run.outcome.makespan() <= 3 * t,
                    "PARTITION exceeded 1.5·t at t={t} on {inst:?}",
                );
                assert!(run.outcome.moves() <= pm);
            }
            (None, Some((_, _))) => {
                // planned_moves is None only when L_T > m; but then no
                // assignment can pack the large jobs either, so the exact
                // solver must not have found one at makespan ≤ t... unless
                // t ≥ 2·max_size made the job small. Feasibility of the
                // exact solution implies feasibility of the guess.
                panic!("PARTITION called t={t} infeasible but the oracle achieved it: {inst:?}");
            }
            _ => {}
        }
    }
}

#[test]
fn family_a_exhaustive_small_instances() {
    let (mut cells, mut selected) = (0usize, 0usize);
    for m in 1..=3usize {
        for n in 1..=4usize {
            for sizes in size_multisets(n, 3) {
                for placement in all_placements(n, m) {
                    let inst = Instance::from_sizes(&sizes, placement, m).unwrap();
                    for k in 0..=n {
                        selected += usize::from(certify(&inst, k));
                        cells += 1;
                    }
                }
            }
        }
    }
    // Exhaustiveness guard: the family must not silently shrink.
    assert_eq!(cells, 9_078, "family A cell count drifted");
    // The default-vs-binary check must cover the selection fast path.
    assert!(selected > 0, "no family A cell took the selection path");
}

#[test]
fn family_a_move_minimality() {
    for m in 2..=3usize {
        for n in 1..=4usize {
            for sizes in size_multisets(n, 3) {
                for placement in all_placements(n, m) {
                    let inst = Instance::from_sizes(&sizes, placement, m).unwrap();
                    certify_move_minimality(&inst);
                }
            }
        }
    }
}

#[test]
fn family_b_oracle_limit_instances() {
    // n = 8 and n = 10 on m = 4: the documented branch-and-bound comfort
    // zone. Placements are canonical set partitions (every `stride`-th
    // restricted growth string), so shapes range from "all piled" to
    // "fully spread".
    let families: [(&[u64], usize); 2] = [
        (&[9, 7, 5, 4, 3, 2, 2, 1], 17),
        (&[12, 10, 8, 7, 6, 5, 4, 3, 2, 1], 211),
    ];
    let (mut cells, mut selected) = (0usize, 0usize);
    for (sizes, stride) in families {
        let n = sizes.len();
        for placement in rgs_placements(n, 4, stride) {
            let inst = Instance::from_sizes(sizes, placement, 4).unwrap();
            for k in [0usize, 1, 2, 4] {
                selected += usize::from(certify(&inst, k));
                cells += 1;
            }
        }
    }
    assert!(cells > 400, "only {cells} cells enumerated");
    assert!(selected > 0, "no family B cell took the selection path");
}

#[test]
fn family_b_move_minimality() {
    let sizes: &[u64] = &[9, 7, 5, 4, 3, 2, 2, 1];
    for placement in rgs_placements(sizes.len(), 4, 41) {
        let inst = Instance::from_sizes(sizes, placement, 4).unwrap();
        certify_move_minimality(&inst);
    }
}

/// All cost vectors over `{1, 3}`^n: cheap and expensive relocations mixed
/// in every pattern, so the knapsack's keep/shed trade-off is exercised in
/// both directions.
fn cost_vectors(n: usize) -> Vec<Vec<u64>> {
    let mut out = vec![vec![]];
    for _ in 0..n {
        out = out
            .into_iter()
            .flat_map(|c| {
                [1u64, 3].into_iter().map(move |cost| {
                    let mut c = c.clone();
                    c.push(cost);
                    c
                })
            })
            .collect();
    }
    out
}

/// Assert the §3.2 guarantees on one (instance, cost budget) cell: the plan
/// respects the budget exactly, and the makespan is within the paper's
/// 1.5-factor of the *cost-constrained* exact optimum (integer sizes
/// collapse the `(1+α)` guessing error and the knapsack on these tiny cells
/// is exact, so the `ε`/`α` slack terms vanish — checked as
/// `2·cp ≤ 3·OPT_B` in exact integers).
fn certify_cost(inst: &Instance, b: u64) {
    let opt = exact::optimal_makespan_cost(inst, b);
    let run = cost_partition::rebalance(inst, b).expect("cost-partition solves every instance");
    assert!(
        run.outcome.cost() <= b,
        "cost budget violated: paid {} > {b} on {inst:?}",
        run.outcome.cost(),
    );
    assert!(
        2 * run.outcome.makespan() <= 3 * opt,
        "1.5 cost ratio violated: {} > 1.5·{opt} on {inst:?} b={b}",
        run.outcome.makespan(),
    );
}

#[test]
fn family_c_exhaustive_arbitrary_cost_cells() {
    // Exhaustive at the small end, like family A but over the cost model
    // too: every size multiset over {1,2,3}, every {1,3}-cost vector, every
    // placement, and every cost budget from 0 to the total relocation cost
    // (any larger budget is equivalent to the total).
    let mut cells = 0usize;
    for m in 2..=3usize {
        for n in 1..=3usize {
            for sizes in size_multisets(n, 3) {
                for costs in cost_vectors(n) {
                    let jobs: Vec<Job> = sizes
                        .iter()
                        .zip(&costs)
                        .map(|(&s, &c)| Job::with_cost(s, c))
                        .collect();
                    let total: u64 = costs.iter().sum();
                    for placement in all_placements(n, m) {
                        let inst = Instance::new(jobs.clone(), placement, m).unwrap();
                        for b in 0..=total {
                            certify_cost(&inst, b);
                            cells += 1;
                        }
                    }
                }
            }
        }
    }
    // Exhaustiveness guard: the family must not silently shrink.
    assert_eq!(cells, 21_250, "family C cell count drifted");
}

#[test]
fn family_c_oracle_limit_cost_instances() {
    // Larger mixed-cost instances at the oracle's comfort zone: expensive
    // big jobs and cheap small ones (and one inverted pattern), canonical
    // strided placements, a cost-budget ladder.
    let families: [(&[u64], &[u64]); 2] = [
        (&[9, 7, 5, 4, 3, 2], &[5, 4, 3, 2, 1, 1]),
        (&[8, 6, 5, 3, 2, 1], &[1, 1, 2, 3, 4, 5]),
    ];
    let mut cells = 0usize;
    for (sizes, costs) in families {
        let jobs: Vec<Job> = sizes
            .iter()
            .zip(costs)
            .map(|(&s, &c)| Job::with_cost(s, c))
            .collect();
        for placement in rgs_placements(sizes.len(), 3, 3) {
            let inst = Instance::new(jobs.clone(), placement, 3).unwrap();
            for b in [0u64, 1, 2, 4, 8] {
                certify_cost(&inst, b);
                cells += 1;
            }
        }
    }
    assert!(cells > 200, "only {cells} cells enumerated");
}

#[test]
fn exact_oracle_agrees_with_itself_on_budget_kinds() {
    // Unit costs: a move budget k and a cost budget k are the same
    // constraint; the two oracle entry points must agree (sanity check that
    // the differential base line is trustworthy).
    for placement in rgs_placements(6, 3, 3) {
        let inst = Instance::from_sizes(&[6, 5, 4, 3, 2, 1], placement, 3).unwrap();
        for k in 0..=4usize {
            assert_eq!(
                exact::optimal_makespan_moves(&inst, k),
                exact::optimal_makespan_cost(&inst, k as u64),
            );
            // And the branch-and-bound solution achieves what it claims.
            let sol = exact::branch_bound::solve(&inst, Budget::Moves(k));
            assert_eq!(sol.makespan, exact::optimal_makespan_moves(&inst, k));
        }
    }
}

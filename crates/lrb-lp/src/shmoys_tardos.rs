//! The Shmoys–Tardos 2-approximation baseline \[14\] for budgeted load
//! rebalancing, via the paper's §2 reduction to generalized assignment.
//!
//! Pipeline: binary-search the smallest makespan guess `T` whose LP
//! relaxation has fractional cost within the budget, then round the vertex
//! solution. Rounding keeps every integrally-assigned job in place and
//! matches each fractionally-assigned job to one of its fractional
//! processors, at most one per processor, minimizing cost (successive
//! cheapest augmenting paths). The result has cost at most the budget and
//! makespan at most `T + max_j s_j ≤ 2T ≤ 2·OPT_B`.
//!
//! This is the prior-art baseline the paper's 1.5-approximation improves
//! on; experiment T9 compares them head-to-head and F3 compares runtimes.

use lrb_core::bounds;
use lrb_core::error::Result;
use lrb_core::model::{Budget, Cost, Instance, ProcId, Size};
use lrb_core::outcome::RebalanceOutcome;

use crate::gap::{solve_relaxation, FractionalAssignment};

/// Result of the Shmoys–Tardos baseline.
#[derive(Debug, Clone)]
pub struct StRun {
    /// The rounded assignment.
    pub outcome: RebalanceOutcome,
    /// The accepted makespan guess (LP value).
    pub guess: Size,
    /// Fractional LP cost at the accepted guess.
    pub lp_cost: f64,
}

/// Minimize makespan subject to total relocation cost at most `budget`,
/// within factor 2 (makespan `≤ 2·OPT_budget`).
///
/// ```
/// use lrb_core::model::Instance;
///
/// let inst = Instance::from_sizes(&[5, 5], vec![0, 0], 2).unwrap();
/// let run = lrb_lp::rebalance(&inst, 1).unwrap();
/// assert_eq!(run.outcome.makespan(), 5);
/// assert!(run.outcome.cost() <= 1);
/// ```
pub fn rebalance(inst: &Instance, budget: Cost) -> Result<StRun> {
    if inst.num_jobs() == 0 {
        return Ok(StRun {
            outcome: RebalanceOutcome::unchanged(inst),
            guess: 0,
            lp_cost: 0.0,
        });
    }

    // Binary search the smallest integer T whose LP cost fits the budget.
    // The initial makespan always qualifies (cost 0).
    let lb = bounds::lower_bound(inst, Budget::Cost(budget)).max(1);
    let ub = inst.initial_makespan().max(lb);
    let fits = |t: Size| -> Option<FractionalAssignment> {
        solve_relaxation(inst, t).filter(|f| f.cost <= budget as f64 + 1e-6)
    };
    let (mut lo, mut hi) = (lb, ub);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // Round at the found guess; if the rounded cost overshoots the budget
    // (possible only through the rounding fallback path), climb the guess
    // ladder — the LP cost, and with it the rounded cost, shrinks to zero
    // by the initial makespan.
    let mut t = lo;
    loop {
        if let Some(frac) = fits(t) {
            let assignment = round(inst, &frac);
            let outcome = RebalanceOutcome::from_assignment(inst, assignment)?;
            if outcome.cost() <= budget {
                let outcome = outcome.clamp_to_initial(inst);
                return Ok(StRun {
                    outcome,
                    guess: t,
                    lp_cost: frac.cost,
                });
            }
        }
        if t >= ub {
            // The do-nothing solution is always within budget.
            return Ok(StRun {
                outcome: RebalanceOutcome::unchanged(inst),
                guess: ub,
                lp_cost: 0.0,
            });
        }
        t = (t + t.div_ceil(8)).min(ub);
    }
}

/// Round a fractional vertex solution: integral jobs stay, fractional jobs
/// are matched to their fractional processors (≤ 1 extra job per
/// processor), cheapest-cost matching via successive augmenting paths.
pub(crate) fn round(inst: &Instance, frac: &FractionalAssignment) -> Vec<ProcId> {
    let n = inst.num_jobs();
    let mut assignment = vec![0usize; n];
    let mut fractional: Vec<usize> = Vec::new();
    for (j, xs) in frac.x.iter().enumerate() {
        if let Some(&(p, _)) = xs.iter().find(|&&(_, v)| v > 1.0 - 1e-6) {
            assignment[j] = p;
        } else {
            fractional.push(j);
        }
    }

    // Min-cost bipartite matching: fractional jobs -> their fractional
    // processors, one job per processor. Successive shortest augmenting
    // paths with Bellman-Ford (graphs here are tiny: a vertex solution has
    // at most m+1 fractional jobs).
    let m = inst.num_procs();
    let mut matched_proc: Vec<Option<usize>> = vec![None; m]; // proc -> job
    let mut job_proc: Vec<Option<usize>> = vec![None; n];

    for &start in &fractional {
        // Bellman-Ford over alternating paths: dist[p] = cheapest way to
        // free processor p for `start` (chain of reassignments).
        let edge_cost = |j: usize, p: usize| -> f64 {
            if p == inst.initial_proc(j) {
                0.0
            } else {
                inst.cost(j) as f64
            }
        };
        let mut dist = vec![f64::INFINITY; m];
        let mut via: Vec<Option<(usize, Option<usize>)>> = vec![None; m]; // (job, prev proc)
                                                                          // Initialize with start's own fractional edges.
        for &(p, _) in &frac.x[start] {
            let c = edge_cost(start, p);
            if c < dist[p] {
                dist[p] = c;
                via[p] = Some((start, None));
            }
        }
        // Relax through matched jobs that could move to another of their
        // fractional processors. Successive-shortest-path matchings admit
        // no negative cycles, so m passes suffice; the cap also guards
        // against numerical pathologies.
        for _pass in 0..=m {
            let mut improved = false;
            for p in 0..m {
                if dist[p].is_finite() {
                    if let Some(j2) = matched_proc[p] {
                        for &(p2, _) in &frac.x[j2] {
                            if p2 != p {
                                let nd = dist[p] + edge_cost(j2, p2) - edge_cost(j2, p);
                                if nd < dist[p2] - 1e-12 {
                                    dist[p2] = nd;
                                    via[p2] = Some((j2, Some(p)));
                                    improved = true;
                                }
                            }
                        }
                    }
                }
            }
            if !improved {
                break;
            }
        }
        // Choose the cheapest free processor.
        let target = (0..m)
            .filter(|&p| matched_proc[p].is_none() && dist[p].is_finite())
            .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).unwrap());
        match target {
            Some(mut p) => {
                // Unwind the alternating path.
                loop {
                    let (j, prev) = via[p].expect("reachable processors have a predecessor");
                    matched_proc[p] = Some(j);
                    job_proc[j] = Some(p);
                    match prev {
                        Some(q) => p = q,
                        None => break,
                    }
                }
            }
            None => {
                // Theoretically unreachable for a vertex solution (a
                // saturating matching exists); fall back to the job's
                // highest-fraction processor to stay total.
                let &(p, _) = frac.x[start]
                    .iter()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .expect("fractional job has at least two edges");
                job_proc[start] = Some(p);
            }
        }
    }

    for &j in &fractional {
        assignment[j] = job_proc[j].expect("every fractional job was placed");
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_instance_stays_put() {
        let inst = Instance::from_sizes(&[5, 5], vec![0, 1], 2).unwrap();
        let run = rebalance(&inst, 0).unwrap();
        assert_eq!(run.outcome.moves(), 0);
        assert_eq!(run.outcome.makespan(), 5);
    }

    #[test]
    fn splits_a_pile_within_factor_two() {
        let inst = Instance::from_sizes(&[5, 5], vec![0, 0], 2).unwrap();
        let run = rebalance(&inst, 1).unwrap();
        assert!(run.outcome.cost() <= 1);
        // OPT = 5; the guarantee allows 10 but rounding should land at 5.
        assert_eq!(run.outcome.makespan(), 5);
    }

    #[test]
    fn budget_respected_and_factor_two_holds() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for trial in 0..25 {
            let n = rng.gen_range(2..=8);
            let m = rng.gen_range(2..=3);
            let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=9)).collect();
            let initial: Vec<usize> = (0..n).map(|_| rng.gen_range(0..m)).collect();
            let inst = Instance::from_sizes(&sizes, initial, m).unwrap();
            let b = rng.gen_range(0..=n as u64);
            let run = rebalance(&inst, b).unwrap();
            assert!(
                run.outcome.cost() <= b,
                "trial {trial}: cost {}",
                run.outcome.cost()
            );
            let opt = lrb_exact::optimal_makespan_cost(&inst, b);
            assert!(
                run.outcome.makespan() <= 2 * opt,
                "trial {trial}: {} > 2*{opt} ({inst:?}, b={b})",
                run.outcome.makespan()
            );
        }
    }

    #[test]
    fn never_worse_than_initial() {
        let inst = Instance::from_sizes(&[7, 3, 2, 6], vec![0, 1, 0, 1], 2).unwrap();
        for b in 0..=4 {
            let run = rebalance(&inst, b).unwrap();
            assert!(run.outcome.makespan() <= inst.initial_makespan());
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::from_sizes(&[], vec![], 2).unwrap();
        let run = rebalance(&inst, 3).unwrap();
        assert_eq!(run.outcome.makespan(), 0);
    }
}

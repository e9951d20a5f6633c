//! The web-farm simulator: the Linder–Shah website-migration scenario the
//! paper cites as its motivating application (§1, §3).
//!
//! Websites with drifting loads live on servers; each epoch the simulator
//! refreshes the loads, asks the policy for a rebalanced placement within
//! the per-epoch budget, applies it, and records metrics. Migration cost of
//! a site is configurable (unit per site, or proportional to its load as a
//! proxy for content size).

use std::time::Instant;

use lrb_core::model::{Budget, Instance, Job};
use lrb_faults::{FaultPlan, FaultyView};
use lrb_obs::{names, NoopRecorder, Recorder};

use crate::metrics::{DecisionCounters, DegradationMetrics, EpochMetrics, SimReport};
use crate::policy::Policy;
use crate::workload::{Workload, WorkloadConfig};

/// The solver work allowance handed to policies (via
/// [`Policy::note_work_budget`]) on epochs whose fault plan declares the
/// solver budget exhausted. Deliberately tight — a few hundred ticks is not
/// enough for any real tier on a farm-sized instance, so fallback chains
/// actually degrade.
pub const EXHAUSTED_EPOCH_WORK_TICKS: u64 = 256;

/// Migration cost model for websites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCost {
    /// Every site costs 1 to move.
    Unit,
    /// Moving a site costs `max(1, load / divisor)` — content scales with
    /// popularity.
    ProportionalToLoad {
        /// Load units per cost unit.
        divisor: u64,
    },
}

/// Simulation parameters.
#[derive(Debug, Clone, Copy)]
pub struct FarmConfig {
    /// Number of servers.
    pub num_servers: usize,
    /// Number of epochs to simulate.
    pub epochs: usize,
    /// Per-epoch relocation budget handed to the policy.
    pub budget: Budget,
    /// Website workload model.
    pub workload: WorkloadConfig,
    /// Migration cost model.
    pub migration_cost: MigrationCost,
    /// RNG seed (workload and initial placement).
    pub seed: u64,
}

impl FarmConfig {
    /// A default farm: 8 servers, 100 epochs, 4 moves per epoch.
    pub fn default_farm(num_sites: usize, num_servers: usize) -> Self {
        FarmConfig {
            num_servers,
            epochs: 100,
            budget: Budget::Moves(4),
            workload: WorkloadConfig::default_web(num_sites),
            migration_cost: MigrationCost::Unit,
            seed: 0,
        }
    }
}

/// Run the simulation with a policy, returning the trace.
///
/// The initial placement is balanced (LPT on the initial loads): drift is
/// what unbalances it, exactly the paper's story.
pub fn run(cfg: &FarmConfig, policy: &mut dyn Policy) -> SimReport {
    run_recorded(cfg, policy, &NoopRecorder)
}

/// [`run`] with instrumentation: besides the wall-time and decision data
/// every report carries, feeds per-epoch timings into `sim.epoch` /
/// `sim.epoch_nanos` and decision counts into `sim.epochs`,
/// `sim.rebalanced`, and `sim.unchanged` on the recorder.
pub fn run_recorded<R: Recorder>(cfg: &FarmConfig, policy: &mut dyn Policy, rec: &R) -> SimReport {
    let mut workload = Workload::new(cfg.workload, cfg.seed);
    let mut placement = lrb_core::lpt::schedule(workload.loads(), cfg.num_servers);
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut epoch_wall_nanos = Vec::with_capacity(cfg.epochs);
    let mut decisions = DecisionCounters::default();

    for epoch in 0..cfg.epochs {
        let started = Instant::now();
        let _epoch = rec.time(names::SIM_EPOCH);
        workload.step();
        let inst = instance_for(workload.loads(), &placement, cfg);
        let new_assignment = policy.rebalance(&inst, cfg.budget);

        // Enforce the contract: well-formed and within budget (the
        // full-rebalance baseline is exempt from the budget by design).
        let makespan = inst
            .makespan_of(&new_assignment)
            .expect("policy returned malformed assignment");
        let unlimited = policy.name() == "full-rebalance";
        assert!(
            unlimited || cfg.budget.allows(&inst, &new_assignment),
            "policy {} exceeded the budget",
            policy.name()
        );

        let migrations = inst.move_count(&new_assignment);
        let migration_cost = inst.move_cost(&new_assignment);
        epochs.push(EpochMetrics {
            epoch,
            makespan,
            avg_load: inst.avg_load_ceil(),
            migrations,
            migration_cost,
        });
        placement = new_assignment;

        decisions.record(migrations);
        let nanos = (started.elapsed().as_nanos() as u64).max(1);
        epoch_wall_nanos.push(nanos);
        rec.incr(names::SIM_EPOCHS, 1);
        rec.incr(
            if migrations > 0 {
                names::SIM_REBALANCED
            } else {
                names::SIM_UNCHANGED
            },
            1,
        );
        rec.observe(names::SIM_EPOCH_NANOS, nanos);
    }

    SimReport {
        policy: policy.name().to_string(),
        epochs,
        epoch_wall_nanos,
        decisions,
        degradation: DegradationMetrics::default(),
        provenance: Vec::new(),
    }
}

/// [`run_faulty_recorded`] without instrumentation.
pub fn run_faulty(cfg: &FarmConfig, policy: &mut dyn Policy, plan: &FaultPlan) -> SimReport {
    run_faulty_recorded(cfg, policy, plan, &NoopRecorder)
}

/// Run the simulation under a fault plan: crash-aware epoch stepping with
/// graceful degradation instead of panics.
///
/// Each epoch:
///
/// 1. Sites stranded on crashed servers are **evacuated** to the
///    least-loaded surviving server; those forced moves bill the epoch's
///    relocation budget.
/// 2. The policy is told about outages and any solver-work exhaustion
///    ([`Policy::note_outages`] / [`Policy::note_work_budget`]), then handed
///    the *corrupted* view of the farm ([`FaultyView`]: stale, dropped, or
///    perturbed load reports), projected onto the surviving servers so no
///    policy can place a site on a dead one.
/// 3. The answer is validated against the **true** farm state; a malformed
///    or over-budget answer is rejected (keeping the evacuated placement)
///    rather than panicking — metrics always describe true loads.
///
/// Degradation is aggregated in [`SimReport::degradation`] and per-epoch
/// answer provenance in [`SimReport::provenance`]. A fault-free plan takes
/// the exact historical code path, so its report is bit-for-bit identical
/// to [`run_recorded`].
///
/// On a timeline recorder, crash/recovery transitions and per-site
/// evacuations additionally land as `fault.crash`, `fault.recovery`, and
/// `fault.evacuation` instant events (payload = the processor or site
/// index).
pub fn run_faulty_recorded<R: Recorder>(
    cfg: &FarmConfig,
    policy: &mut dyn Policy,
    plan: &FaultPlan,
    rec: &R,
) -> SimReport {
    if plan.is_fault_free() {
        return run_recorded(cfg, policy, rec);
    }
    assert_eq!(
        plan.num_procs(),
        cfg.num_servers,
        "fault plan covers {} processors but the farm has {} servers",
        plan.num_procs(),
        cfg.num_servers
    );

    let mut workload = Workload::new(cfg.workload, cfg.seed);
    let mut placement = lrb_core::lpt::schedule(workload.loads(), cfg.num_servers);
    let mut view = FaultyView::new();
    let mut epochs = Vec::with_capacity(cfg.epochs);
    let mut epoch_wall_nanos = Vec::with_capacity(cfg.epochs);
    let mut provenance = Vec::with_capacity(cfg.epochs);
    let mut decisions = DecisionCounters::default();
    let mut degradation = DegradationMetrics::default();
    let mut regret_sum = 0.0f64;
    let mut prev_down = vec![false; cfg.num_servers];

    for epoch in 0..cfg.epochs {
        let started = Instant::now();
        let _epoch = rec.time(names::SIM_EPOCH);
        workload.step();
        let faults = plan.epoch(epoch);
        if R::ENABLED {
            let (crashed, recovered) = faults.transitions(&prev_down);
            for p in crashed {
                rec.instant(names::FAULT_CRASH, p as u64, false);
            }
            for p in recovered {
                rec.instant(names::FAULT_RECOVERY, p as u64, false);
            }
            prev_down.clone_from(&faults.down);
        }
        let loads: Vec<u64> = workload.loads().to_vec();
        let n = loads.len();
        let up: Vec<usize> = (0..cfg.num_servers).filter(|&p| !faults.down[p]).collect();

        // 1) Evacuate sites off crashed servers (forced, budget-billed).
        let mut server_load = vec![0u64; cfg.num_servers];
        for (site, &srv) in placement.iter().enumerate() {
            server_load[srv] = server_load[srv].saturating_add(loads[site]);
        }
        let mut forced_moves = 0usize;
        let mut forced_cost = 0u64;
        for site in 0..n {
            let from = placement[site];
            if faults.down[from] {
                let &to = up
                    .iter()
                    .min_by_key(|&&p| server_load[p])
                    .expect("fault plans keep at least one processor up");
                server_load[to] = server_load[to].saturating_add(loads[site]);
                server_load[from] = server_load[from].saturating_sub(loads[site]);
                placement[site] = to;
                forced_moves += 1;
                forced_cost =
                    forced_cost.saturating_add(site_cost(loads[site], cfg.migration_cost));
                rec.instant(names::FAULT_EVACUATION, site as u64, false);
            }
        }
        let remaining_budget = match cfg.budget {
            Budget::Moves(k) => Budget::Moves(k.saturating_sub(forced_moves)),
            Budget::Cost(b) => Budget::Cost(b.saturating_sub(forced_cost)),
        };

        // 2) True state vs. the corrupted view the policy gets, projected
        //    onto the surviving servers.
        let true_inst = instance_for(&loads, &placement, cfg);
        let seen = view.observe(&true_inst, &faults, plan.perturb_pct());
        let mut up_index = vec![usize::MAX; cfg.num_servers];
        for (q, &p) in up.iter().enumerate() {
            up_index[p] = q;
        }
        let proj_jobs: Vec<Job> = (0..n)
            .map(|j| Job::with_cost(seen.size(j), seen.cost(j)))
            .collect();
        let proj_init: Vec<usize> = placement.iter().map(|&p| up_index[p]).collect();
        let proj_inst = Instance::new(proj_jobs, proj_init, up.len())
            .expect("evacuated placement lives on up servers");

        policy.note_outages(&faults.down);
        policy.note_work_budget(
            faults
                .solver_exhausted
                .then_some(EXHAUSTED_EPOCH_WORK_TICKS),
        );
        let proj_asg = policy.rebalance(&proj_inst, remaining_budget);

        // 3) Validate against the true farm; reject instead of panicking.
        let unlimited = policy.name() == "full-rebalance";
        let shaped = proj_asg.len() == n && proj_asg.iter().all(|&q| q < up.len());
        let accepted = shaped
            .then(|| proj_asg.iter().map(|&q| up[q]).collect::<Vec<usize>>())
            .filter(|mapped| {
                true_inst.makespan_of(mapped).is_ok()
                    && (unlimited || remaining_budget.allows(&true_inst, mapped))
            });
        let rejected = accepted.is_none();
        let final_placement = accepted.unwrap_or_else(|| placement.clone());

        let policy_moves = true_inst.move_count(&final_placement);
        let makespan = true_inst
            .makespan_of(&final_placement)
            .expect("evacuated placement is well-formed");
        let migrations = forced_moves + policy_moves;
        let migration_cost = forced_cost.saturating_add(true_inst.move_cost(&final_placement));
        // The honest per-epoch lower bound averages over *surviving*
        // servers only.
        let avg_load = true_inst.total_size().div_ceil(up.len() as u64).max(1);
        let oracle = lpt_makespan(&loads, up.len()).max(1);
        regret_sum += (makespan as f64 / oracle as f64 - 1.0).max(0.0);

        let tier = if rejected {
            "rejected"
        } else {
            policy.provenance()
        };
        let fallback = !rejected && tier != "policy";
        let degraded = forced_moves > 0 || rejected || fallback || faults.solver_exhausted;
        degradation.epochs_degraded += u64::from(degraded);
        degradation.fallback_invocations += u64::from(fallback);
        degradation.forced_migrations += forced_moves as u64;
        degradation.forced_migration_cost = degradation
            .forced_migration_cost
            .saturating_add(forced_cost);
        degradation.policy_rejections += u64::from(rejected);
        degradation.budget_exhausted_epochs += u64::from(faults.solver_exhausted);
        provenance.push(tier.to_string());

        epochs.push(EpochMetrics {
            epoch,
            makespan,
            avg_load,
            migrations,
            migration_cost,
        });
        placement = final_placement;

        decisions.record(migrations);
        let nanos = (started.elapsed().as_nanos() as u64).max(1);
        epoch_wall_nanos.push(nanos);
        rec.incr(names::SIM_EPOCHS, 1);
        rec.incr(
            if migrations > 0 {
                names::SIM_REBALANCED
            } else {
                names::SIM_UNCHANGED
            },
            1,
        );
        rec.observe(names::SIM_EPOCH_NANOS, nanos);
        if degraded {
            rec.incr(names::SIM_DEGRADED_EPOCHS, 1);
        }
        if forced_moves > 0 {
            rec.incr(names::SIM_FORCED_MIGRATIONS, forced_moves as u64);
        }
        if rejected {
            rec.incr(names::SIM_POLICY_REJECTIONS, 1);
        }
        if fallback {
            rec.incr(names::SIM_FALLBACKS, 1);
        }
    }

    degradation.mean_oracle_regret = if cfg.epochs > 0 {
        regret_sum / cfg.epochs as f64
    } else {
        0.0
    };
    SimReport {
        policy: policy.name().to_string(),
        epochs,
        epoch_wall_nanos,
        decisions,
        degradation,
        provenance,
    }
}

/// Migration cost of one site under the configured model.
fn site_cost(load: u64, model: MigrationCost) -> u64 {
    match model {
        MigrationCost::Unit => 1,
        MigrationCost::ProportionalToLoad { divisor } => (load / divisor.max(1)).max(1),
    }
}

/// Makespan of a fresh LPT schedule of `loads` on `m` servers — the
/// unconstrained oracle used for regret (shared with the online driver).
pub(crate) fn lpt_makespan(loads: &[u64], m: usize) -> u64 {
    let asg = lrb_core::lpt::schedule(loads, m);
    let mut per = vec![0u64; m];
    for (j, &p) in asg.iter().enumerate() {
        per[p] = per[p].saturating_add(loads[j]);
    }
    per.into_iter().max().unwrap_or(0)
}

/// Snapshot the farm as a load rebalancing instance.
pub(crate) fn instance_for(loads: &[u64], placement: &[usize], cfg: &FarmConfig) -> Instance {
    let jobs: Vec<Job> = loads
        .iter()
        .map(|&l| Job::with_cost(l, site_cost(l, cfg.migration_cost)))
        .collect();
    Instance::new(jobs, placement.to_vec(), cfg.num_servers)
        .expect("farm state is always a valid instance")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{FullRebalance, GreedyPolicy, MPartitionPolicy, NoRebalance};

    fn cfg() -> FarmConfig {
        let mut c = FarmConfig::default_farm(60, 6);
        c.epochs = 40;
        c
    }

    #[test]
    fn deterministic_given_seed() {
        let c = cfg();
        let a = run(&c, &mut MPartitionPolicy);
        let b = run(&c, &mut MPartitionPolicy);
        assert_eq!(a.epochs, b.epochs);
    }

    #[test]
    fn no_rebalance_never_migrates() {
        let r = run(&cfg(), &mut NoRebalance);
        assert_eq!(r.total_migrations(), 0);
    }

    #[test]
    fn budget_is_enforced_per_epoch() {
        let c = cfg();
        let r = run(&c, &mut GreedyPolicy);
        for e in &r.epochs {
            assert!(
                e.migrations <= 4,
                "epoch {}: {} migrations",
                e.epoch,
                e.migrations
            );
        }
    }

    #[test]
    fn rebalancing_beats_drifting() {
        let c = cfg();
        let drift = run(&c, &mut NoRebalance);
        let fixed = run(&c, &mut MPartitionPolicy);
        assert!(
            fixed.mean_imbalance() <= drift.mean_imbalance(),
            "m-partition {} vs no-rebalance {}",
            fixed.mean_imbalance(),
            drift.mean_imbalance()
        );
    }

    #[test]
    fn full_rebalance_is_the_quality_ceiling() {
        let c = cfg();
        let full = run(&c, &mut FullRebalance);
        let bounded = run(&c, &mut MPartitionPolicy);
        // Full rebalancing moves more but balances at least as well
        // (tolerate tiny noise from LPT non-optimality).
        assert!(full.mean_imbalance() <= bounded.mean_imbalance() + 0.05);
        assert!(full.total_migrations() >= bounded.total_migrations());
    }

    #[test]
    fn diurnal_farm_rewards_rebalancing_more() {
        // A day/night cycle creates recurring, correlated imbalance that a
        // static placement cannot absorb; rebalancing pays off clearly.
        let mut c = cfg();
        c.workload = crate::workload::WorkloadConfig::diurnal_web(60, 20);
        let drift = run(&c, &mut NoRebalance);
        let fixed = run(&c, &mut MPartitionPolicy);
        assert!(fixed.mean_imbalance() < drift.mean_imbalance());
    }

    #[test]
    fn cost_budget_variant_runs() {
        let mut c = cfg();
        c.budget = Budget::Cost(6);
        c.migration_cost = MigrationCost::ProportionalToLoad { divisor: 8 };
        let r = run(&c, &mut MPartitionPolicy);
        for e in &r.epochs {
            assert!(e.migration_cost <= 6, "epoch {}", e.epoch);
        }
    }

    #[test]
    fn no_fault_plan_reproduces_the_faultless_report_bit_for_bit() {
        let c = cfg();
        let clean = run(&c, &mut MPartitionPolicy);
        let faulty = run_faulty(&c, &mut MPartitionPolicy, &FaultPlan::none(c.num_servers));
        assert_eq!(clean.epochs, faulty.epochs);
        assert_eq!(clean.decisions, faulty.decisions);
        assert_eq!(clean.degradation, faulty.degradation);
        assert!(faulty.degradation.is_clean());
        assert!(faulty.provenance.is_empty());
    }

    #[test]
    fn crashes_force_evacuations_and_every_epoch_stays_valid() {
        let c = cfg();
        let plan = lrb_faults::FaultPlan::generate(
            &lrb_faults::FaultConfig::crashes(0.2, 0.5, 17),
            c.num_servers,
            c.epochs,
        );
        assert!(!plan.is_fault_free());
        let r = run_faulty(&c, &mut MPartitionPolicy, &plan);
        assert_eq!(r.epochs.len(), c.epochs);
        assert_eq!(r.provenance.len(), c.epochs);
        assert!(r.degradation.forced_migrations > 0, "{:?}", r.degradation);
        assert!(r.degradation.epochs_degraded > 0);
        // Every epoch still produced a finite, well-formed makespan.
        for e in &r.epochs {
            assert!(
                e.makespan >= e.avg_load || e.makespan == 0,
                "epoch {}",
                e.epoch
            );
        }
    }

    #[test]
    fn traced_faulty_runs_emit_fault_events_and_match_recorded() {
        let c = cfg();
        let plan = lrb_faults::FaultPlan::generate(
            &lrb_faults::FaultConfig::crashes(0.2, 0.5, 17),
            c.num_servers,
            c.epochs,
        );
        let plain = run_faulty(&c, &mut MPartitionPolicy, &plan);
        let collector = lrb_obs::TraceCollector::new(1);
        let traced = run_faulty_recorded(&c, &mut MPartitionPolicy, &plan, collector.main());
        assert_eq!(
            plain.epochs, traced.epochs,
            "tracing must not change results"
        );
        let trace = collector.finish("chaos", 17, 1, "m-partition");
        assert!(trace.events_named(names::FAULT_CRASH).count() > 0);
        assert_eq!(
            trace.events_named(names::FAULT_EVACUATION).count() as u64,
            traced.degradation.forced_migrations,
            "one evacuation instant per forced migration"
        );
        // Every epoch lands as a sim.epoch span.
        assert_eq!(trace.events_named(names::SIM_EPOCH).count(), c.epochs);
        // Crash/recovery transitions never exceed the number of crashes.
        assert!(
            trace.events_named(names::FAULT_RECOVERY).count()
                <= trace.events_named(names::FAULT_CRASH).count()
        );
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let c = cfg();
        let mk = || {
            lrb_faults::FaultPlan::generate(
                &lrb_faults::FaultConfig {
                    crash_rate: 0.15,
                    recovery_rate: 0.4,
                    perturb_pct: 10,
                    stale_rate: 0.1,
                    drop_rate: 0.05,
                    exhaust_rate: 0.1,
                    seed: 23,
                },
                c.num_servers,
                c.epochs,
            )
        };
        let a = run_faulty(&c, &mut crate::policy::FallbackPolicy::practical(), &mk());
        let b = run_faulty(&c, &mut crate::policy::FallbackPolicy::practical(), &mk());
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.degradation, b.degradation);
        assert_eq!(a.provenance, b.provenance);
    }

    #[test]
    fn exhausted_solver_budgets_invoke_the_fallback_chain() {
        let c = cfg();
        let plan = lrb_faults::FaultPlan::generate(
            &lrb_faults::FaultConfig {
                exhaust_rate: 1.0,
                ..lrb_faults::FaultConfig::none(5)
            },
            c.num_servers,
            c.epochs,
        );
        let mut p = crate::policy::FallbackPolicy::standard();
        let r = run_faulty(&c, &mut p, &plan);
        assert_eq!(r.degradation.budget_exhausted_epochs, c.epochs as u64);
        assert!(
            r.degradation.fallback_invocations > 0,
            "{:?}",
            r.degradation
        );
        // The starved chain bottoms out at no-move, which is recorded as
        // the answering tier.
        assert!(
            r.provenance.iter().any(|t| t == "no-move"),
            "{:?}",
            r.provenance
        );
    }

    #[test]
    fn oracle_regret_is_finite_and_nonnegative() {
        let c = cfg();
        let plan = lrb_faults::FaultPlan::generate(
            &lrb_faults::FaultConfig::crashes(0.3, 0.3, 99),
            c.num_servers,
            c.epochs,
        );
        let r = run_faulty(&c, &mut GreedyPolicy, &plan);
        assert!(r.degradation.mean_oracle_regret.is_finite());
        assert!(r.degradation.mean_oracle_regret >= 0.0);
    }
}

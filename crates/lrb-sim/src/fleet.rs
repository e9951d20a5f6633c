//! Lockstep multi-farm simulation over the batch engine.
//!
//! A fleet steps many independent farms through their epochs together: at
//! each tick every farm's rebalancing snapshot goes into one
//! [`lrb_engine`] batch, solved across worker threads with per-worker
//! scratch reuse. Because the engine is bit-identical to the sequential
//! solvers for any thread count, each farm's report matches what
//! [`crate::farm::run`] with an [`crate::policy::MPartitionPolicy`] would
//! have produced on its own — the fleet changes wall-clock, never traces.
//!
//! One bookkeeping difference: per-epoch wall times
//! ([`SimReport::epoch_wall_nanos`]) cover only each farm's solve (the
//! engine's per-item latency), not workload stepping, since epochs of
//! different farms interleave inside a batch.

use lrb_engine::{solve_batch_recorded, BatchItem, BatchSolver, EngineConfig};
use lrb_obs::{names, NoopRecorder, Recorder};

use crate::farm::{instance_for, FarmConfig};
use crate::metrics::{DecisionCounters, DegradationMetrics, EpochMetrics, SimReport};
use crate::workload::Workload;

/// A set of farms simulated in lockstep through the batch engine.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The farms; they may differ in size, budget, workload, and epoch
    /// count (shorter farms simply finish early).
    pub farms: Vec<FarmConfig>,
    /// Engine worker threads; `0` = available parallelism.
    pub threads: usize,
}

/// Run every farm under the M-PARTITION policy via the batch engine.
pub fn run_fleet(cfg: &FleetConfig) -> Vec<SimReport> {
    run_fleet_recorded(cfg, &NoopRecorder)
}

/// [`run_fleet`] with instrumentation: the engine's `engine.*` metrics plus
/// the same `sim.*` counters the sequential farm loop emits.
pub fn run_fleet_recorded<R: Recorder + Sync>(cfg: &FleetConfig, rec: &R) -> Vec<SimReport> {
    struct FarmState {
        workload: Workload,
        placement: Vec<usize>,
        epochs: Vec<EpochMetrics>,
        epoch_wall_nanos: Vec<u64>,
        decisions: DecisionCounters,
    }

    let mut farms: Vec<FarmState> = cfg
        .farms
        .iter()
        .map(|fc| {
            let workload = Workload::new(fc.workload, fc.seed);
            let placement = lrb_core::lpt::schedule(workload.loads(), fc.num_servers);
            FarmState {
                workload,
                placement,
                epochs: Vec::with_capacity(fc.epochs),
                epoch_wall_nanos: Vec::with_capacity(fc.epochs),
                decisions: DecisionCounters::default(),
            }
        })
        .collect();

    let max_epochs = cfg.farms.iter().map(|f| f.epochs).max().unwrap_or(0);
    let engine_cfg = EngineConfig::with_threads(cfg.threads);

    for epoch in 0..max_epochs {
        let _lockstep = rec.time(names::SIM_FLEET_EPOCH);
        // Snapshot every still-running farm into one batch.
        let mut active: Vec<usize> = Vec::new();
        let mut items: Vec<BatchItem> = Vec::new();
        for (i, fc) in cfg.farms.iter().enumerate() {
            if epoch >= fc.epochs {
                continue;
            }
            let state = &mut farms[i];
            state.workload.step();
            items.push(BatchItem {
                instance: instance_for(state.workload.loads(), &state.placement, fc),
                budget: fc.budget,
            });
            active.push(i);
        }
        if items.is_empty() {
            break;
        }

        let batch = solve_batch_recorded(&items, BatchSolver::MPartition, &engine_cfg, rec);

        for (slot, &i) in active.iter().enumerate() {
            let fc = &cfg.farms[i];
            let state = &mut farms[i];
            let inst = &items[slot].instance;
            let new_assignment = batch.outcomes[slot].assignment().to_vec();

            let makespan = inst
                .makespan_of(&new_assignment)
                .expect("engine returned malformed assignment");
            assert!(
                fc.budget.allows(inst, &new_assignment),
                "engine exceeded the budget on farm {i}"
            );

            let migrations = inst.move_count(&new_assignment);
            let migration_cost = inst.move_cost(&new_assignment);
            // Epoch indices are per *farm*, contiguous from 0 — every farm
            // starts at the global tick 0 and only ever drops out at its
            // own end, so its local count and the global loop index agree.
            // Recording the local count keeps traces comparable with solo
            // runs even if the scheduling of farms ever changes.
            let farm_epoch = state.epochs.len();
            debug_assert_eq!(farm_epoch, epoch);
            state.epochs.push(EpochMetrics {
                epoch: farm_epoch,
                makespan,
                avg_load: inst.avg_load_ceil(),
                migrations,
                migration_cost,
            });
            state.placement = new_assignment;
            state.decisions.record(migrations);

            let nanos = batch.solve_nanos[slot].max(1);
            state.epoch_wall_nanos.push(nanos);
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
    }

    for state in &farms {
        for (e, m) in state.epochs.iter().enumerate() {
            assert_eq!(m.epoch, e, "per-farm epoch indices must be contiguous");
        }
    }
    farms
        .into_iter()
        .map(|state| SimReport {
            policy: "m-partition".to_string(),
            epochs: state.epochs,
            epoch_wall_nanos: state.epoch_wall_nanos,
            decisions: state.decisions,
            degradation: DegradationMetrics::default(),
            provenance: Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::run;
    use crate::policy::MPartitionPolicy;
    use lrb_core::model::Budget;

    fn fleet() -> FleetConfig {
        let mut farms = Vec::new();
        for (sites, servers, seed) in [(40, 4, 1u64), (60, 6, 2), (30, 3, 3)] {
            let mut fc = FarmConfig::default_farm(sites, servers);
            fc.epochs = 25;
            fc.seed = seed;
            farms.push(fc);
        }
        // One cost-budget farm to cover the cost-partition path.
        let mut fc = FarmConfig::default_farm(24, 4);
        fc.epochs = 15;
        fc.budget = Budget::Cost(5);
        fc.seed = 9;
        farms.push(fc);
        FleetConfig { farms, threads: 2 }
    }

    #[test]
    fn fleet_traces_match_sequential_farm_runs() {
        let cfg = fleet();
        let reports = run_fleet(&cfg);
        assert_eq!(reports.len(), cfg.farms.len());
        for (fc, fleet_report) in cfg.farms.iter().zip(&reports) {
            let solo = run(fc, &mut MPartitionPolicy);
            assert_eq!(fleet_report.policy, solo.policy);
            assert_eq!(fleet_report.epochs, solo.epochs);
            assert_eq!(fleet_report.decisions, solo.decisions);
        }
    }

    #[test]
    fn per_farm_epoch_indices_are_contiguous_despite_mixed_lengths() {
        let reports = run_fleet(&fleet());
        for (fc, report) in fleet().farms.iter().zip(&reports) {
            assert_eq!(report.epochs.len(), fc.epochs);
            for (e, m) in report.epochs.iter().enumerate() {
                assert_eq!(m.epoch, e);
            }
        }
    }

    #[test]
    fn fleet_is_thread_count_invariant() {
        let mut cfg = fleet();
        cfg.threads = 1;
        let seq = run_fleet(&cfg);
        for threads in [2, 4, 8] {
            cfg.threads = threads;
            let par = run_fleet(&cfg);
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.epochs, b.epochs, "threads={threads}");
                assert_eq!(a.decisions, b.decisions, "threads={threads}");
            }
        }
    }

    #[test]
    fn empty_fleet() {
        let reports = run_fleet(&FleetConfig {
            farms: Vec::new(),
            threads: 4,
        });
        assert!(reports.is_empty());
    }
}

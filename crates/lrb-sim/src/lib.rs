//! # lrb-sim — simulators for the paper's motivating applications
//!
//! The paper's introduction motivates bounded-move rebalancing with two
//! systems scenarios; both are simulated here against the real algorithms:
//!
//! * [`farm`] — a **web-server farm** (the Linder–Shah website-migration
//!   setting): websites with drifting, flash-crowd-prone loads on servers,
//!   rebalanced each epoch under a migration budget;
//! * [`process`] — **process migration** on a multiprocessor: heavy-tailed
//!   process lifetimes (Harchol-Balter & Downey), memory-footprint
//!   migration costs.
//!
//! Shared pieces: [`workload`] (drift + flash crowds), [`policy`]
//! (pluggable rebalancers: none / GREEDY / M-PARTITION / full LPT /
//! threshold-triggered / fallback-chain), and [`metrics`] (imbalance
//! traces plus degradation aggregates).
//!
//! The farm simulator can also run under an `lrb-faults` fault plan
//! ([`run_farm_faulty`]): crashed servers are evacuated, policies see a
//! corrupted load view, and invalid answers degrade gracefully instead of
//! panicking.

pub mod adversary;
pub mod farm;
pub mod fleet;
pub mod metrics;
pub mod online;
pub mod policy;
pub mod process;
pub mod stochastic;
pub mod trace;
pub mod workload;

pub use adversary::{AdaptiveAdversary, Adversary, GreedyPunisher, RandomOrderAdversary};
pub use farm::{
    run as run_farm, run_faulty as run_farm_faulty,
    run_faulty_recorded as run_farm_faulty_recorded, run_recorded as run_farm_recorded, FarmConfig,
    MigrationCost, EXHAUSTED_EPOCH_WORK_TICKS,
};
pub use fleet::{run_fleet, run_fleet_recorded, FleetConfig};
pub use metrics::{DecisionCounters, DegradationMetrics, EpochMetrics, SimReport};
pub use online::{
    run_farm_online, run_farm_online_faulty, run_farm_online_faulty_recorded,
    run_farm_online_recorded, run_online_fleet, run_online_fleet_recorded, OnlineFleetConfig,
    OnlineRunReport, OnlineWorkload, OnlineWorkloadConfig,
};
pub use policy::{
    FallbackPolicy, FullRebalance, GreedyPolicy, MPartitionPolicy, NoRebalance, Policy,
    ThresholdTriggered,
};
pub use process::{run as run_process, ProcessSimConfig};
pub use stochastic::{
    evaluate as evaluate_effective_size, rebalance_effective, EffectiveSizeReport,
    StochasticConfig, StochasticJob, StochasticWorkload,
};
pub use trace::{replay, TraceWorkload};
pub use workload::{Diurnal, Workload, WorkloadConfig};

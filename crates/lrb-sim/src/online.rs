//! Online (streaming) farm simulation: arrivals, departures, and banked
//! rebalancing budgets.
//!
//! The batch simulators ([`crate::farm`]) refresh a *fixed* site population
//! each epoch; here the population itself churns. An [`OnlineWorkload`]
//! generates a seeded event stream — Poisson-ish arrivals with heavy-tailed
//! sizes, geometric departure lifetimes — and [`run_farm_online`] drives an
//! [`OnlineRebalancer`] through it: each epoch applies the churn, then
//! issues one `Rebalance` event whose effective budget is clamped by the
//! rebalancer's amortized move bank.
//!
//! Three drivers share the same per-epoch accounting:
//!
//! * [`run_farm_online`] / [`run_farm_online_recorded`] — one farm, solved
//!   inline by the rebalancer (warm incremental ladder).
//! * [`run_farm_online_faulty`] — the same, under an `lrb-faults` plan:
//!   crashed servers are evacuated (billed to the bank) and solves are
//!   projected onto surviving servers. The event stream is authoritative —
//!   the online controller knows its own state — so report-corruption
//!   faults (stale / dropped / perturbed loads) do not apply; outages and
//!   solver exhaustion do. A fault-free plan takes the clean code path and
//!   is bit-identical to [`run_farm_online_recorded`].
//! * [`run_online_fleet`] — many farms in lockstep epochs through a
//!   [`StreamEngine`]; per-farm traces are bit-identical to the solo runs
//!   at any engine thread count (the engine changes wall-clock, never
//!   answers).

use std::time::Instant;

use lrb_core::model::{Budget, Instance, Job};
use lrb_core::online::{BankConfig, Event, JobKey, OnlineRebalancer, OnlineStats};
use lrb_core::{cost_partition, mpartition};
use lrb_engine::{BatchItem, BatchSolver, EngineConfig, StreamEngine};
use lrb_faults::FaultPlan;
use lrb_instances::SizeDistribution;
use lrb_obs::{names, NoopRecorder, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{DecisionCounters, DegradationMetrics, EpochMetrics, SimReport};

/// Parameters of one online farm: its churn model, budget, and bank.
#[derive(Debug, Clone, Copy)]
pub struct OnlineWorkloadConfig {
    /// Number of servers.
    pub num_procs: usize,
    /// Number of epochs to simulate.
    pub epochs: usize,
    /// Jobs present before the first epoch (arrive on seeded random servers).
    pub initial_jobs: usize,
    /// Mean arrivals per epoch (Poisson-distributed count).
    pub arrival_rate: f64,
    /// Mean job lifetime in epochs (geometric: each live job departs with
    /// probability `1 / mean_lifetime` per epoch). Values `< 1` are treated
    /// as 1.
    pub mean_lifetime: f64,
    /// Job-size distribution (heavy-tailed by default).
    pub sizes: SizeDistribution,
    /// Budget requested at each epoch's rebalance (the bank may grant less).
    pub budget: Budget,
    /// Amortized move-bank policy.
    pub bank: BankConfig,
    /// RNG seed for the event stream.
    pub seed: u64,
}

impl OnlineWorkloadConfig {
    /// A default online farm: Pareto sizes, ~6 arrivals and ~25-epoch
    /// lifetimes, 4 moves requested per epoch against a defaulted bank.
    pub fn default_online(num_procs: usize) -> Self {
        OnlineWorkloadConfig {
            num_procs,
            epochs: 100,
            initial_jobs: 8 * num_procs,
            arrival_rate: 6.0,
            mean_lifetime: 25.0,
            sizes: SizeDistribution::Pareto {
                scale: 4,
                alpha: 1.5,
            },
            budget: Budget::Moves(4),
            bank: BankConfig::default(),
            seed: 0,
        }
    }
}

/// Seeded generator of arrival/departure events.
///
/// Within an epoch, departures are emitted first (in ascending key order
/// over the jobs live at the epoch's start), then arrivals (with fresh,
/// monotonically increasing keys). The epoch's `Rebalance` event is issued
/// by the driver, not the generator, so tests can permute the churn events
/// freely without touching the solve.
///
/// This is the *stochastic* (Poisson churn) end of the arrival spectrum;
/// the worst-case end — random-order and adaptive adversarial streams for
/// the competitive lab — lives in [`crate::adversary`].
#[derive(Debug, Clone)]
pub struct OnlineWorkload {
    cfg: OnlineWorkloadConfig,
    rng: StdRng,
    next_key: JobKey,
    /// Live keys, ascending (kept in lockstep with the rebalancer).
    live: Vec<JobKey>,
}

impl OnlineWorkload {
    /// A generator for `cfg`'s stream.
    pub fn new(cfg: OnlineWorkloadConfig) -> Self {
        OnlineWorkload {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            next_key: 0,
            live: Vec::new(),
        }
    }

    /// The `initial_jobs` arrivals that populate the farm before epoch 0.
    pub fn initial_events(&mut self) -> Vec<Event> {
        (0..self.cfg.initial_jobs)
            .map(|_| self.one_arrival())
            .collect()
    }

    /// One epoch's churn: departures of the currently live jobs, then fresh
    /// arrivals. Does not include the epoch's `Rebalance` event.
    pub fn epoch_events(&mut self) -> Vec<Event> {
        let mut events = Vec::new();
        let depart_p = 1.0 / self.cfg.mean_lifetime.max(1.0);
        let mut kept = Vec::with_capacity(self.live.len());
        for &key in &std::mem::take(&mut self.live) {
            if self.rng.gen_bool(depart_p) {
                events.push(Event::Depart { key });
            } else {
                kept.push(key);
            }
        }
        self.live = kept;
        let arrivals = poisson(&mut self.rng, self.cfg.arrival_rate);
        for _ in 0..arrivals {
            events.push(self.one_arrival());
        }
        events
    }

    /// Keys currently live from the generator's point of view.
    pub fn live_keys(&self) -> &[JobKey] {
        &self.live
    }

    fn one_arrival(&mut self) -> Event {
        let key = self.next_key;
        self.next_key += 1;
        self.live.push(key);
        let size = self.cfg.sizes.sample(&mut self.rng).max(1);
        let proc = self.rng.gen_range(0..self.cfg.num_procs);
        Event::Arrive {
            key,
            job: Job::unit(size),
            proc,
        }
    }
}

/// Knuth's Poisson sampler; fine for the per-epoch rates used here.
fn poisson(rng: &mut StdRng, mean: f64) -> usize {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// Trace of one online run: the standard epoch metrics plus the online
/// bookkeeping (event counters, banked balances, churn curve).
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineRunReport {
    /// Epoch metrics, decisions, and (under faults) degradation aggregates.
    pub sim: SimReport,
    /// Event/solver counters from the rebalancer. In fleet mode the
    /// incremental/full-rebuild split is reported by the engine instead and
    /// stays zero here.
    pub stats: OnlineStats,
    /// Bank balance after each epoch's rebalance.
    pub banked_per_epoch: Vec<u64>,
    /// Arrivals applied in each epoch.
    pub arrivals_per_epoch: Vec<usize>,
    /// Departures applied in each epoch.
    pub departures_per_epoch: Vec<usize>,
    /// Per-server loads after the final epoch.
    pub final_loads: Vec<u64>,
}

/// Per-epoch record book shared by the three drivers.
#[derive(Debug, Default)]
struct OnlineTrace {
    epochs: Vec<EpochMetrics>,
    epoch_wall_nanos: Vec<u64>,
    decisions: DecisionCounters,
    banked_per_epoch: Vec<u64>,
    arrivals_per_epoch: Vec<usize>,
    departures_per_epoch: Vec<usize>,
}

impl OnlineTrace {
    fn with_capacity(epochs: usize) -> Self {
        OnlineTrace {
            epochs: Vec::with_capacity(epochs),
            epoch_wall_nanos: Vec::with_capacity(epochs),
            decisions: DecisionCounters::default(),
            banked_per_epoch: Vec::with_capacity(epochs),
            arrivals_per_epoch: Vec::with_capacity(epochs),
            departures_per_epoch: Vec::with_capacity(epochs),
        }
    }

    fn into_report(
        self,
        policy: &str,
        degradation: DegradationMetrics,
        provenance: Vec<String>,
        rebalancer: &OnlineRebalancer,
    ) -> OnlineRunReport {
        OnlineRunReport {
            sim: SimReport {
                policy: policy.to_string(),
                epochs: self.epochs,
                epoch_wall_nanos: self.epoch_wall_nanos,
                decisions: self.decisions,
                degradation,
                provenance,
            },
            stats: *rebalancer.stats(),
            banked_per_epoch: self.banked_per_epoch,
            arrivals_per_epoch: self.arrivals_per_epoch,
            departures_per_epoch: self.departures_per_epoch,
            final_loads: rebalancer.loads().to_vec(),
        }
    }
}

/// Policy label for a budget kind.
fn policy_name(budget: Budget) -> &'static str {
    match budget {
        Budget::Moves(_) => "online-mpartition",
        Budget::Cost(_) => "online-cost-partition",
    }
}

/// Apply a slice of churn events to the rebalancer, counting churn and
/// (when enabled) per-event latencies.
fn apply_churn<R: Recorder>(
    rebalancer: &mut OnlineRebalancer,
    events: &[Event],
    rec: &R,
) -> (usize, usize) {
    let mut arrivals = 0usize;
    let mut departures = 0usize;
    for &event in events {
        let start = R::ENABLED.then(Instant::now);
        rebalancer
            .apply(event)
            .expect("generated event streams are always valid");
        if let Some(start) = start {
            rec.observe(
                names::ONLINE_EVENT_NANOS,
                (start.elapsed().as_nanos() as u64).max(1),
            );
        }
        match event {
            Event::Arrive { .. } => arrivals += 1,
            Event::Depart { .. } => departures += 1,
            Event::Rebalance { .. } => {}
        }
    }
    (arrivals, departures)
}

/// Flush the rebalancer's counters to the `online.*` metrics.
fn record_stats<R: Recorder>(stats: &OnlineStats, rec: &R) {
    rec.incr(names::ONLINE_EVENTS, stats.events);
    rec.incr(names::ONLINE_ARRIVALS, stats.arrivals);
    rec.incr(names::ONLINE_DEPARTURES, stats.departures);
    rec.incr(names::ONLINE_REBALANCES, stats.rebalances);
    rec.incr(names::ONLINE_INCREMENTAL, stats.incremental_updates);
    rec.incr(names::ONLINE_REBUILDS, stats.full_rebuilds);
    rec.incr(names::ONLINE_MOVES, stats.moves_performed);
}

/// Run one online farm with the default (uninstrumented) recorder.
pub fn run_farm_online(cfg: &OnlineWorkloadConfig) -> OnlineRunReport {
    run_farm_online_recorded(cfg, &NoopRecorder)
}

/// [`run_farm_online`] with instrumentation: emits the `online.*` counters
/// and histograms named in [`lrb_obs::names`] alongside the usual `sim.*`
/// epoch counters.
pub fn run_farm_online_recorded<R: Recorder>(
    cfg: &OnlineWorkloadConfig,
    rec: &R,
) -> OnlineRunReport {
    let mut rebalancer =
        OnlineRebalancer::new(cfg.num_procs, cfg.bank).expect("online farm has servers");
    let mut workload = OnlineWorkload::new(*cfg);
    apply_churn(&mut rebalancer, &workload.initial_events(), rec);
    let mut trace = OnlineTrace::with_capacity(cfg.epochs);

    for epoch in 0..cfg.epochs {
        let started = Instant::now();
        let _epoch = rec.time(names::SIM_EPOCH);
        let (arrivals, departures) = apply_churn(&mut rebalancer, &workload.epoch_events(), rec);
        let inst = rebalancer.instance();
        let step = rebalancer
            .rebalance(cfg.budget)
            .expect("online rebalance over a valid snapshot");
        debug_assert!(step.effective.allows(&inst, rebalancer.assignment()));

        trace.epochs.push(EpochMetrics {
            epoch,
            makespan: step.outcome.makespan(),
            avg_load: inst.avg_load_ceil(),
            migrations: step.outcome.moves(),
            migration_cost: step.outcome.cost(),
        });
        trace.decisions.record(step.outcome.moves());
        trace.banked_per_epoch.push(step.banked_after);
        trace.arrivals_per_epoch.push(arrivals);
        trace.departures_per_epoch.push(departures);

        let nanos = (started.elapsed().as_nanos() as u64).max(1);
        trace.epoch_wall_nanos.push(nanos);
        rec.incr(names::SIM_EPOCHS, 1);
        rec.incr(
            if step.outcome.moves() > 0 {
                names::SIM_REBALANCED
            } else {
                names::SIM_UNCHANGED
            },
            1,
        );
        rec.observe(names::SIM_EPOCH_NANOS, nanos);
        rec.observe(names::ONLINE_BANKED, step.banked_after);
    }

    record_stats(rebalancer.stats(), rec);
    trace.into_report(
        policy_name(cfg.budget),
        DegradationMetrics::default(),
        Vec::new(),
        &rebalancer,
    )
}

/// [`run_farm_online_faulty_recorded`] without instrumentation.
pub fn run_farm_online_faulty(cfg: &OnlineWorkloadConfig, plan: &FaultPlan) -> OnlineRunReport {
    run_farm_online_faulty_recorded(cfg, plan, &NoopRecorder)
}

/// Run one online farm under a fault plan.
///
/// Each epoch: churn is applied, jobs stranded on crashed servers are
/// force-moved to the least-loaded surviving server (each evacuation billed
/// to the move bank), the solve is projected onto the surviving servers,
/// and the answer is committed only if well-formed and within the effective
/// budget — otherwise the evacuated placement stands and the epoch counts
/// as a policy rejection. Epochs whose plan declares the solver budget
/// exhausted skip the solve entirely (no rebalance event, no accrual). A
/// fault-free plan takes the exact clean code path, so its report is
/// bit-identical to [`run_farm_online_recorded`].
pub fn run_farm_online_faulty_recorded<R: Recorder>(
    cfg: &OnlineWorkloadConfig,
    plan: &FaultPlan,
    rec: &R,
) -> OnlineRunReport {
    if plan.is_fault_free() {
        return run_farm_online_recorded(cfg, rec);
    }
    assert_eq!(
        plan.num_procs(),
        cfg.num_procs,
        "fault plan covers {} processors but the farm has {} servers",
        plan.num_procs(),
        cfg.num_procs
    );

    let mut rebalancer =
        OnlineRebalancer::new(cfg.num_procs, cfg.bank).expect("online farm has servers");
    let mut workload = OnlineWorkload::new(*cfg);
    apply_churn(&mut rebalancer, &workload.initial_events(), rec);
    let mut trace = OnlineTrace::with_capacity(cfg.epochs);
    let mut degradation = DegradationMetrics::default();
    let mut provenance = Vec::with_capacity(cfg.epochs);
    let mut regret_sum = 0.0f64;

    for epoch in 0..cfg.epochs {
        let started = Instant::now();
        let _epoch = rec.time(names::SIM_EPOCH);
        let (arrivals, departures) = apply_churn(&mut rebalancer, &workload.epoch_events(), rec);
        let faults = plan.epoch(epoch);
        let up: Vec<usize> = (0..cfg.num_procs).filter(|&p| !faults.down[p]).collect();

        // 1) Evacuate jobs off crashed servers, billing the bank per job.
        let stranded: Vec<JobKey> = rebalancer
            .keys()
            .iter()
            .copied()
            .filter(|&key| faults.down[rebalancer.proc_of(key).expect("live key")])
            .collect();
        let mut forced_cost = 0u64;
        for key in &stranded {
            let &to = up
                .iter()
                .min_by_key(|&&p| rebalancer.loads()[p])
                .expect("fault plans keep at least one processor up");
            let job = *rebalancer.job(*key).expect("live key");
            rebalancer.force_move(*key, to).expect("valid evacuation");
            let units = match cfg.budget {
                Budget::Moves(_) => 1,
                Budget::Cost(_) => job.cost,
            };
            rebalancer.bill(units);
            forced_cost = forced_cost.saturating_add(job.cost);
        }
        let forced_moves = stranded.len();

        // 2) Solve projected onto surviving servers (unless exhausted).
        let mut policy_moves = 0usize;
        let mut policy_cost = 0u64;
        let mut rejected = false;
        let mut banked_after = rebalancer.bank().balance();
        if !faults.solver_exhausted {
            let effective = rebalancer.begin_rebalance(cfg.budget);
            let mut up_index = vec![usize::MAX; cfg.num_procs];
            for (q, &p) in up.iter().enumerate() {
                up_index[p] = q;
            }
            let keys = rebalancer.keys().to_vec();
            let proj_jobs: Vec<Job> = keys
                .iter()
                .map(|&k| *rebalancer.job(k).expect("live key"))
                .collect();
            let proj_init: Vec<usize> = keys
                .iter()
                .map(|&k| up_index[rebalancer.proc_of(k).expect("live key")])
                .collect();
            let proj_inst = Instance::new(proj_jobs, proj_init, up.len())
                .expect("evacuated placement lives on up servers");
            let solved = match effective {
                Budget::Moves(k) => {
                    mpartition::rebalance(&proj_inst, k).map(|run| run.outcome.into_assignment())
                }
                Budget::Cost(b) => cost_partition::rebalance(&proj_inst, b)
                    .map(|run| run.outcome.into_assignment()),
            };
            match solved {
                Ok(proj_asg) => {
                    let mapped: Vec<usize> = proj_asg.iter().map(|&q| up[q]).collect();
                    match rebalancer.commit_assignment(&mapped, effective) {
                        Ok(commit) => {
                            policy_moves = commit.moves as usize;
                            policy_cost = commit.cost;
                        }
                        Err(_) => rejected = true,
                    }
                }
                Err(_) => rejected = true,
            }
            banked_after = rebalancer.bank().balance();
        }

        // 3) Metrics over the true state.
        let live_sizes: Vec<u64> = rebalancer
            .keys()
            .iter()
            .map(|&k| rebalancer.job(k).expect("live key").size)
            .collect();
        let total: u64 = live_sizes.iter().fold(0u64, |a, &s| a.saturating_add(s));
        let avg_load = total.div_ceil(up.len() as u64).max(1);
        let makespan = rebalancer.makespan();
        let oracle = crate::farm::lpt_makespan(&live_sizes, up.len()).max(1);
        regret_sum += (makespan as f64 / oracle as f64 - 1.0).max(0.0);

        let tier = if rejected { "rejected" } else { "policy" };
        let degraded = forced_moves > 0 || rejected || faults.solver_exhausted;
        degradation.epochs_degraded += u64::from(degraded);
        degradation.forced_migrations += forced_moves as u64;
        degradation.forced_migration_cost = degradation
            .forced_migration_cost
            .saturating_add(forced_cost);
        degradation.policy_rejections += u64::from(rejected);
        degradation.budget_exhausted_epochs += u64::from(faults.solver_exhausted);
        provenance.push(tier.to_string());

        let migrations = forced_moves + policy_moves;
        trace.epochs.push(EpochMetrics {
            epoch,
            makespan,
            avg_load,
            migrations,
            migration_cost: forced_cost.saturating_add(policy_cost),
        });
        trace.decisions.record(migrations);
        trace.banked_per_epoch.push(banked_after);
        trace.arrivals_per_epoch.push(arrivals);
        trace.departures_per_epoch.push(departures);

        let nanos = (started.elapsed().as_nanos() as u64).max(1);
        trace.epoch_wall_nanos.push(nanos);
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
        rec.observe(names::ONLINE_BANKED, banked_after);
        if degraded {
            rec.incr(names::SIM_DEGRADED_EPOCHS, 1);
        }
        if forced_moves > 0 {
            rec.incr(names::SIM_FORCED_MIGRATIONS, forced_moves as u64);
        }
        if rejected {
            rec.incr(names::SIM_POLICY_REJECTIONS, 1);
        }
    }

    degradation.mean_oracle_regret = if cfg.epochs > 0 {
        regret_sum / cfg.epochs as f64
    } else {
        0.0
    };
    record_stats(rebalancer.stats(), rec);
    trace.into_report(
        policy_name(cfg.budget),
        degradation,
        provenance,
        &rebalancer,
    )
}

/// A set of online farms streamed in lockstep through a [`StreamEngine`].
#[derive(Debug, Clone)]
pub struct OnlineFleetConfig {
    /// The farms; they may differ in every parameter (shorter farms simply
    /// finish early).
    pub farms: Vec<OnlineWorkloadConfig>,
    /// Engine worker threads; `0` = available parallelism.
    pub threads: usize,
}

/// Run every online farm in lockstep epochs through the streaming engine.
pub fn run_online_fleet(cfg: &OnlineFleetConfig) -> Vec<OnlineRunReport> {
    run_online_fleet_recorded(cfg, &NoopRecorder)
}

/// [`run_online_fleet`] with instrumentation.
///
/// Each global epoch gathers every still-running farm's post-churn snapshot
/// (with its bank-clamped effective budget) into one engine batch. Because
/// the engine is bit-identical to the sequential solvers at any thread
/// count, and the bank accounting runs through the same
/// `begin_rebalance` / `commit_assignment` pair the solo driver uses, each
/// farm's trace — epoch metrics, banked balances, final loads — matches its
/// [`run_farm_online_recorded`] run exactly. Per-farm epoch indices are the
/// farm's own contiguous `0..epochs` count (asserted below), regardless of
/// how farms interleave in the global loop. The one divergence is
/// telemetry: the incremental/full-rebuild split lives in the engine's
/// ladder counters in fleet mode, so [`OnlineRunReport::stats`] reports
/// zero for those two fields.
pub fn run_online_fleet_recorded<R: Recorder + Sync>(
    cfg: &OnlineFleetConfig,
    rec: &R,
) -> Vec<OnlineRunReport> {
    struct FarmState {
        rebalancer: OnlineRebalancer,
        workload: OnlineWorkload,
        trace: OnlineTrace,
    }

    let mut farms: Vec<FarmState> = cfg
        .farms
        .iter()
        .map(|fc| {
            let mut rebalancer =
                OnlineRebalancer::new(fc.num_procs, fc.bank).expect("online farm has servers");
            let mut workload = OnlineWorkload::new(*fc);
            apply_churn(&mut rebalancer, &workload.initial_events(), rec);
            FarmState {
                rebalancer,
                workload,
                trace: OnlineTrace::with_capacity(fc.epochs),
            }
        })
        .collect();

    let max_epochs = cfg.farms.iter().map(|f| f.epochs).max().unwrap_or(0);
    let mut engine = StreamEngine::new(
        BatchSolver::MPartition,
        &EngineConfig::with_threads(cfg.threads),
    );

    for epoch in 0..max_epochs {
        let _lockstep = rec.time(names::SIM_FLEET_EPOCH);
        let mut active: Vec<usize> = Vec::new();
        let mut items: Vec<BatchItem> = Vec::new();
        let mut effectives: Vec<Budget> = Vec::new();
        let mut churn: Vec<(usize, usize)> = Vec::new();
        for (i, fc) in cfg.farms.iter().enumerate() {
            if epoch >= fc.epochs {
                continue;
            }
            let state = &mut farms[i];
            churn.push(apply_churn(
                &mut state.rebalancer,
                &state.workload.epoch_events(),
                rec,
            ));
            let effective = state.rebalancer.begin_rebalance(fc.budget);
            items.push(BatchItem {
                instance: state.rebalancer.instance(),
                budget: effective,
            });
            effectives.push(effective);
            active.push(i);
        }
        if items.is_empty() {
            break;
        }

        let batch = engine.solve_epoch_recorded(&items, rec);

        for (slot, &i) in active.iter().enumerate() {
            let state = &mut farms[i];
            let inst = &items[slot].instance;
            let commit = state
                .rebalancer
                .commit_assignment(batch.outcomes[slot].assignment(), effectives[slot])
                .expect("engine answers respect the effective budget");

            // Per-farm epoch indices are this farm's own count, contiguous
            // from 0 — not the global loop index (they coincide only
            // because every farm starts at the same tick).
            let farm_epoch = state.trace.epochs.len();
            debug_assert_eq!(farm_epoch, epoch);
            state.trace.epochs.push(EpochMetrics {
                epoch: farm_epoch,
                makespan: batch.outcomes[slot].makespan(),
                avg_load: inst.avg_load_ceil(),
                migrations: commit.moves as usize,
                migration_cost: commit.cost,
            });
            state.trace.decisions.record(commit.moves as usize);
            state
                .trace
                .banked_per_epoch
                .push(state.rebalancer.bank().balance());
            state.trace.arrivals_per_epoch.push(churn[slot].0);
            state.trace.departures_per_epoch.push(churn[slot].1);

            let nanos = batch.solve_nanos[slot].max(1);
            state.trace.epoch_wall_nanos.push(nanos);
            rec.incr(names::SIM_EPOCHS, 1);
            rec.incr(
                if commit.moves > 0 {
                    names::SIM_REBALANCED
                } else {
                    names::SIM_UNCHANGED
                },
                1,
            );
            rec.observe(names::SIM_EPOCH_NANOS, nanos);
            rec.observe(names::ONLINE_BANKED, state.rebalancer.bank().balance());
        }
    }

    for state in &farms {
        record_stats(state.rebalancer.stats(), rec);
        for (e, m) in state.trace.epochs.iter().enumerate() {
            assert_eq!(m.epoch, e, "per-farm epoch indices must be contiguous");
        }
    }
    farms
        .into_iter()
        .zip(&cfg.farms)
        .map(|(state, fc)| {
            let rebalancer = state.rebalancer;
            state.trace.into_report(
                policy_name(fc.budget),
                DegradationMetrics::default(),
                Vec::new(),
                &rebalancer,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assert two runs are identical up to wall-clock timings.
    fn assert_same_trace(a: &OnlineRunReport, b: &OnlineRunReport) {
        let strip = |r: &OnlineRunReport| {
            let mut r = r.clone();
            r.sim.epoch_wall_nanos.clear();
            r
        };
        assert_eq!(strip(a), strip(b));
    }

    fn cfg() -> OnlineWorkloadConfig {
        let mut c = OnlineWorkloadConfig::default_online(4);
        c.epochs = 30;
        c.initial_jobs = 20;
        c.seed = 11;
        c
    }

    #[test]
    fn workload_is_deterministic_and_keys_never_repeat_while_live() {
        let mut a = OnlineWorkload::new(cfg());
        let mut b = OnlineWorkload::new(cfg());
        assert_eq!(a.initial_events(), b.initial_events());
        for _ in 0..10 {
            assert_eq!(a.epoch_events(), b.epoch_events());
        }
        let mut live = std::collections::HashSet::new();
        let mut w = OnlineWorkload::new(cfg());
        for e in w.initial_events() {
            if let Event::Arrive { key, .. } = e {
                assert!(live.insert(key));
            }
        }
        for _ in 0..10 {
            for e in w.epoch_events() {
                match e {
                    Event::Arrive { key, .. } => assert!(live.insert(key)),
                    Event::Depart { key } => assert!(live.remove(&key)),
                    Event::Rebalance { .. } => unreachable!("generator never emits rebalances"),
                }
            }
        }
    }

    #[test]
    fn online_run_is_deterministic_and_respects_effective_budgets() {
        let c = cfg();
        let a = run_farm_online(&c);
        let b = run_farm_online(&c);
        assert_eq!(a.sim.epochs, b.sim.epochs);
        assert_eq!(a.banked_per_epoch, b.banked_per_epoch);
        assert_eq!(a.final_loads, b.final_loads);
        assert_eq!(a.sim.epochs.len(), c.epochs);
        // Migrations never exceed the requested budget (the bank can only
        // tighten it).
        for e in &a.sim.epochs {
            assert!(e.migrations <= 4, "epoch {}: {}", e.epoch, e.migrations);
        }
        assert_eq!(a.stats.rebalances, c.epochs as u64);
        assert_eq!(
            a.stats.events,
            a.stats.arrivals + a.stats.departures + a.stats.rebalances
        );
    }

    #[test]
    fn bank_at_cap_with_forced_evacuation_same_epoch() {
        // The exhaustion boundary: a bank sitting exactly at its cap when
        // a crash forces evacuations in the same epoch as a rebalance.
        // Billing must drain below cap, the epoch's accrual must clamp at
        // the cap (forfeiting the excess, never overflowing), and the
        // rebalance's effective budget must equal the post-evacuation,
        // post-accrual balance.
        let bank = BankConfig {
            initial: 3,
            cap: 3,
            accrual: 2,
        };
        let mut farm = OnlineRebalancer::new(3, bank).expect("3 servers");
        for (k, (size, proc)) in [(9u64, 0), (7, 0), (5, 1), (4, 1), (3, 2)]
            .into_iter()
            .enumerate()
        {
            farm.arrive(k as u64, Job::unit(size), proc).unwrap();
        }
        assert_eq!(farm.bank().balance(), farm.bank().cap());

        // "Crash" server 2: evacuate its one job to the least-loaded
        // survivor, billing one move unit — exactly the faulty-run path.
        let stranded: Vec<JobKey> = farm
            .keys()
            .iter()
            .copied()
            .filter(|&k| farm.proc_of(k) == Some(2))
            .collect();
        assert_eq!(stranded.len(), 1);
        for key in &stranded {
            let to = (0..2).min_by_key(|&p| farm.loads()[p]).unwrap();
            farm.force_move(*key, to).unwrap();
            farm.bill(1);
        }
        assert_eq!(farm.bank().balance(), 2, "cap 3 minus one billed move");

        // Same epoch: rebalance. Accrual of 2 would reach 4 but clamps at
        // the cap; the effective budget is the clamped balance, not the
        // requested amount.
        let effective = farm.begin_rebalance(Budget::Moves(10));
        assert_eq!(farm.bank().balance(), farm.bank().cap());
        assert_eq!(effective, Budget::Moves(3));
        // Accrual of 2 from balance 2 would pass the cap of 3: only the
        // 1 credited unit counts; the forfeited remainder is gone.
        assert_eq!(farm.bank().total_accrued(), 1);

        // A full faulty run under heavy crash churn keeps the invariant
        // balance ≤ cap at every epoch, starting exactly at the cap.
        let mut c = cfg();
        c.bank = bank;
        c.epochs = 40;
        let fc = lrb_faults::FaultConfig {
            crash_rate: 0.35,
            recovery_rate: 0.5,
            ..lrb_faults::FaultConfig::none(9)
        };
        let plan = FaultPlan::generate(&fc, c.num_procs, c.epochs);
        let r = run_farm_online_faulty(&c, &plan);
        assert_eq!(r.banked_per_epoch.len(), c.epochs);
        for (e, &b) in r.banked_per_epoch.iter().enumerate() {
            assert!(b <= bank.cap, "epoch {e}: banked {b} above cap");
        }
    }

    #[test]
    fn warm_ladder_makes_most_rebalances_incremental() {
        let mut c = cfg();
        c.budget = Budget::Moves(4);
        let r = run_farm_online(&c);
        // Churn between epochs changes the multiset, so the epoch solve
        // itself is primed by the incremental multiset: every non-empty
        // rebalance should hit the primed ladder.
        assert_eq!(
            r.stats.incremental_updates, c.epochs as u64,
            "{:?}",
            r.stats
        );
    }

    #[test]
    fn online_counters_are_emitted() {
        let rec = lrb_obs::AtomicRecorder::new();
        let c = cfg();
        let r = run_farm_online_recorded(&c, &rec);
        let snap = rec.snapshot();
        assert_eq!(snap.counter(names::ONLINE_EVENTS), Some(r.stats.events));
        assert_eq!(
            snap.counter(names::ONLINE_REBALANCES),
            Some(c.epochs as u64)
        );
        assert_eq!(
            snap.histogram(names::ONLINE_BANKED).unwrap().count,
            c.epochs as u64
        );
        assert!(snap.histogram(names::ONLINE_EVENT_NANOS).unwrap().count > 0);
    }

    #[test]
    fn fault_free_plan_is_bit_identical_to_clean_run() {
        let c = cfg();
        let clean = run_farm_online(&c);
        let faulty = run_farm_online_faulty(&c, &FaultPlan::none(c.num_procs));
        assert_same_trace(&clean, &faulty);
    }

    #[test]
    fn crashes_evacuate_and_degrade_gracefully() {
        let c = cfg();
        let plan = FaultPlan::generate(
            &lrb_faults::FaultConfig::crashes(0.25, 0.5, 7),
            c.num_procs,
            c.epochs,
        );
        assert!(!plan.is_fault_free());
        let r = run_farm_online_faulty(&c, &plan);
        assert_eq!(r.sim.epochs.len(), c.epochs);
        assert_eq!(r.sim.provenance.len(), c.epochs);
        assert!(
            r.sim.degradation.forced_migrations > 0,
            "{:?}",
            r.sim.degradation
        );
        assert!(r.sim.degradation.epochs_degraded > 0);
        assert!(r.sim.degradation.mean_oracle_regret.is_finite());
        let deterministic = run_farm_online_faulty(&c, &plan);
        assert_same_trace(&r, &deterministic);
    }

    #[test]
    fn exhausted_epochs_skip_the_solve() {
        let c = cfg();
        let plan = FaultPlan::generate(
            &lrb_faults::FaultConfig {
                exhaust_rate: 1.0,
                ..lrb_faults::FaultConfig::none(5)
            },
            c.num_procs,
            c.epochs,
        );
        let r = run_farm_online_faulty(&c, &plan);
        assert_eq!(r.sim.degradation.budget_exhausted_epochs, c.epochs as u64);
        assert_eq!(r.stats.rebalances, 0);
    }

    #[test]
    fn fleet_traces_match_solo_online_runs() {
        let mut farms = Vec::new();
        for (m, seed) in [(4usize, 1u64), (6, 2), (3, 3)] {
            let mut fc = OnlineWorkloadConfig::default_online(m);
            fc.epochs = 20;
            fc.seed = seed;
            farms.push(fc);
        }
        // A shorter cost-budget farm covers the cost path and early finish.
        let mut fc = OnlineWorkloadConfig::default_online(4);
        fc.epochs = 12;
        fc.budget = Budget::Cost(5);
        fc.seed = 9;
        farms.push(fc);

        let fleet = run_online_fleet(&OnlineFleetConfig {
            farms: farms.clone(),
            threads: 2,
        });
        assert_eq!(fleet.len(), farms.len());
        for (fc, fleet_report) in farms.iter().zip(&fleet) {
            let solo = run_farm_online(fc);
            assert_eq!(fleet_report.sim.policy, solo.sim.policy);
            assert_eq!(fleet_report.sim.epochs, solo.sim.epochs);
            assert_eq!(fleet_report.sim.decisions, solo.sim.decisions);
            assert_eq!(fleet_report.banked_per_epoch, solo.banked_per_epoch);
            assert_eq!(fleet_report.arrivals_per_epoch, solo.arrivals_per_epoch);
            assert_eq!(fleet_report.departures_per_epoch, solo.departures_per_epoch);
            assert_eq!(fleet_report.final_loads, solo.final_loads);
        }
    }

    #[test]
    fn online_fleet_is_thread_count_invariant() {
        let farms: Vec<OnlineWorkloadConfig> = (0..3)
            .map(|i| {
                let mut fc = OnlineWorkloadConfig::default_online(4 + i);
                fc.epochs = 15;
                fc.seed = i as u64;
                fc
            })
            .collect();
        let seq = run_online_fleet(&OnlineFleetConfig {
            farms: farms.clone(),
            threads: 1,
        });
        for threads in [2, 4, 8] {
            let par = run_online_fleet(&OnlineFleetConfig {
                farms: farms.clone(),
                threads,
            });
            for (a, b) in seq.iter().zip(&par) {
                assert_same_trace(a, b);
            }
        }
    }

    #[test]
    fn empty_online_fleet() {
        assert!(run_online_fleet(&OnlineFleetConfig {
            farms: Vec::new(),
            threads: 4,
        })
        .is_empty());
    }
}

//! The benchmark's own tests, on the tiny smoke size of every workload.

use std::path::PathBuf;
use std::time::Duration;

use lrb_core::mpartition;
use lrb_core::outcome::RebalanceOutcome;
use lrb_harness::loadgen::{Client, ClientConfig};
use lrb_perfbench::engine::{self, Shape};
use lrb_perfbench::report::{Measured, RunResult};
use lrb_perfbench::{run, serve, Settings, WORKLOADS};
use lrb_serve::wire::{Request, Response};

fn smoke(seed: u64, traced: bool) -> Settings {
    Settings {
        seed,
        window: Duration::from_millis(600),
        traced,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke"),
        smoke: true,
    }
}

/// `(name, unit)` of every metric BENCHMARK.json declares under `key`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc[key]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| m[f].as_str().expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(r: &RunResult) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|(n, _, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn info<'a>(r: &'a RunResult, key: &str) -> &'a str {
    &r.info.iter().find(|(k, _)| k == key).expect("info key").1
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    for workload in WORKLOADS {
        for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(workload, &smoke(1, traced)).expect("smoke run");
            assert!(r.correct, "{workload}: {:?}", r.problems);
            assert_eq!(r.failed, 0, "{workload}");
            assert!(r.attempted > 0, "{workload}");
            assert_eq!(emitted(&r), declared(key), "{workload} traced={traced}");
            assert!(r.metrics.iter().all(|(_, v, _)| v.is_finite()));
            if !traced {
                assert!(
                    r.metrics.iter().all(|(_, v, _)| *v > 0.0),
                    "{workload}: an end-to-end metric read 0: {:?}",
                    r.metrics
                );
            }
            let line = r.to_json();
            let parsed: serde_json::Value = serde_json::from_str(&line).expect("result parses");
            assert_eq!(parsed["correct"].as_bool(), Some(true));
        }
    }
}

#[test]
fn a_corrupted_outcome_trips_the_engine_check() {
    let input = engine::inputs(Shape::Epochs, 5, true);
    let flat: Vec<_> = input.iter().flatten().cloned().collect();
    let mut outcomes: Vec<RebalanceOutcome> = flat
        .iter()
        .map(|item| {
            mpartition::rebalance(&item.instance, engine::moves_of(item.budget))
                .expect("solves")
                .outcome
        })
        .collect();
    let mut clean = Measured::default();
    engine::check_phases(&flat, &outcomes, &outcomes, &mut clean);
    assert!(clean.problems.is_empty(), "{:?}", clean.problems);

    // Move one job more than the budget allows.
    let item = &flat[3];
    let k = engine::moves_of(item.budget);
    let mut a = item.instance.initial().clone();
    for p in a.iter_mut().take(k + 1) {
        *p = (*p + 1) % item.instance.num_procs();
    }
    let good = outcomes.clone();
    outcomes[3] = RebalanceOutcome::from_assignment(&item.instance, a).expect("valid assignment");
    let mut tripped = Measured::default();
    engine::check_phases(&flat, &outcomes, &good, &mut tripped);
    assert_eq!(tripped.failed, 1);
    assert!(
        tripped.problems.iter().any(|p| p.contains("exceed k")),
        "{:?}",
        tripped.problems
    );
    assert!(tripped.problems.iter().any(|p| p.contains("differ")));
}

#[test]
fn a_dropped_acked_key_trips_the_serve_check() {
    let m = serve::measure_with(&smoke(2, false), |addr, ledger| {
        let (&(tenant, key), _) = ledger.iter().find(|(_, &live)| live).expect("a live key");
        let mut client = Client::new(addr, ClientConfig::default());
        let resp = client
            .call(&Request::Depart { tenant, key })
            .expect("depart");
        assert!(matches!(resp, Response::Ack { .. }), "{resp:?}");
    })
    .expect("smoke run");
    assert!(
        m.problems.iter().any(|p| p.contains("not Located")),
        "{:?}",
        m.problems
    );
    assert!(m.problems.iter().any(|p| p.contains("digests differ")));
}

#[test]
fn the_seed_changes_the_inputs_but_not_the_metric_names() {
    for workload in WORKLOADS {
        let a = run(workload, &smoke(1, false)).expect("smoke run");
        let again = run(workload, &smoke(1, false)).expect("smoke run");
        let b = run(workload, &smoke(2, false)).expect("smoke run");
        assert_eq!(info(&a, "digest"), info(&again, "digest"), "{workload}");
        assert_ne!(info(&a, "digest"), info(&b, "digest"), "{workload}");
        assert_eq!(emitted(&a), emitted(&b));
    }
}

//! Pinned JSON schemas for the CLI's machine-readable reports.
//!
//! The vendored serde stub has no `deny_unknown_fields`, so schema
//! discipline is enforced by hand: each report kind pins its exact key set
//! (top level and per nested record) plus its `schema_version`, and
//! [`validate_bench`] / [`validate_chaos`] / [`validate_online`] reject any
//! document whose key sets drift — unknown *or* missing fields are both
//! errors. The CLI validates its own output before printing it, and the
//! golden tests (`tests/golden.rs`) validate from the consumer side, so a
//! field rename without a version bump fails in both directions.

use serde_json::Value;

use crate::bench::BENCH_SCHEMA_VERSION;
use crate::chaos::CHAOS_SCHEMA_VERSION;
use crate::online::ONLINE_SCHEMA_VERSION;

/// Top-level keys of a bench report ([`crate::bench::BenchReport`]).
pub const BENCH_TOP_KEYS: &[&str] = &[
    "available_parallelism",
    "repeats",
    "rungs",
    "scenario",
    "schema_version",
    "seed",
    "solver",
    "thread_curve",
];
/// Keys of one `rungs` entry ([`crate::bench::RungInfo`]).
pub const BENCH_RUNG_KEYS: &[&str] = &["instances", "jobs", "name", "procs"];
/// Keys of one `thread_curve` entry ([`crate::bench::ThreadPoint`]).
pub const BENCH_POINT_KEYS: &[&str] = &[
    "ladder_hits",
    "ladder_misses",
    "oversubscribed",
    "p50_solve_nanos",
    "p99_solve_nanos",
    "speedup_vs_1t",
    "steals",
    "threads",
    "throughput_per_sec",
    "wall_nanos",
];

/// Top-level keys of a chaos report ([`crate::chaos::ChaosReport`]).
pub const CHAOS_TOP_KEYS: &[&str] = &[
    "epochs",
    "moves",
    "points",
    "schema_version",
    "seed",
    "servers",
    "sites",
];
/// Keys of one `points` entry ([`crate::chaos::ChaosPoint`]).
pub const CHAOS_POINT_KEYS: &[&str] = &[
    "budget_exhausted_epochs",
    "crash_rate",
    "epochs_degraded",
    "fallback_invocations",
    "forced_migrations",
    "mean_imbalance",
    "mean_oracle_regret",
    "p95_imbalance",
    "policy",
    "policy_rejections",
    "scenario",
    "total_migrations",
];

/// Top-level keys of an online report ([`crate::online::OnlineReport`]).
pub const ONLINE_TOP_KEYS: &[&str] = &[
    "arrival_rate",
    "arrivals",
    "bank_accrual",
    "bank_cap",
    "bank_initial",
    "budget_amount",
    "budget_kind",
    "departures",
    "epoch_curve",
    "epochs",
    "events",
    "final_loads",
    "final_makespan",
    "full_rebuilds",
    "incremental_updates",
    "initial_jobs",
    "mean_imbalance",
    "mean_lifetime",
    "moves_performed",
    "p95_imbalance",
    "policy",
    "rebalances",
    "schema_version",
    "seed",
    "servers",
    "total_migration_cost",
    "total_migrations",
];
/// Keys of one `epoch_curve` entry ([`crate::online::OnlineEpochPoint`]).
pub const ONLINE_POINT_KEYS: &[&str] = &[
    "arrivals",
    "avg_load",
    "banked",
    "departures",
    "epoch",
    "makespan",
    "migration_cost",
    "migrations",
];

/// Top-level keys of a serve snapshot document
/// ([`lrb_serve::snapshot::SnapshotDoc`]). Re-pinned here from the consumer
/// side: `tests` assert these mirror the producer's consts in
/// `lrb_serve::snapshot`, so the daemon cannot change its on-disk schema
/// without this file (and the lint goldens) noticing.
pub const SERVE_TOP_KEYS: &[&str] = &["applied", "schema_version", "tenants"];
/// Keys of one `tenants` entry ([`lrb_serve::snapshot::TenantSnap`]).
pub const SERVE_TENANT_KEYS: &[&str] = &[
    "arrivals",
    "bank_accrual",
    "bank_balance",
    "bank_cap",
    "bank_total_accrued",
    "bank_total_spent",
    "departures",
    "events",
    "full_rebuilds",
    "incremental_updates",
    "jobs",
    "moves_performed",
    "procs",
    "rebalances",
    "tenant",
];
/// Keys of one `jobs` entry ([`lrb_serve::snapshot::JobSnap`]).
pub const SERVE_JOB_KEYS: &[&str] = &["cost", "key", "proc", "size"];

/// Top-level keys of a trace export ([`crate::trace::chrome_json`]). The
/// Chrome trace-event container plus the workspace's version stamp.
pub const TRACE_TOP_KEYS: &[&str] = &[
    "displayTimeUnit",
    "otherData",
    "schema_version",
    "traceEvents",
];
/// Keys of the `otherData` run-metadata block.
pub const TRACE_META_KEYS: &[&str] = &[
    "attributed_pct",
    "determinism_hash",
    "scenario",
    "seed",
    "solver",
    "span_count",
    "threads",
];
/// Keys of one `"ph": "X"` (complete span) trace event.
pub const TRACE_COMPLETE_KEYS: &[&str] = &["args", "dur", "name", "ph", "pid", "tid", "ts"];
/// Keys of one `"ph": "i"` (instant) trace event.
pub const TRACE_INSTANT_KEYS: &[&str] = &["args", "name", "ph", "pid", "s", "tid", "ts"];
/// Keys of a trace event's `args` payload.
pub const TRACE_ARG_KEYS: &[&str] = &["seq", "v"];

/// Top-level keys of a hetero report ([`crate::hetero::HeteroReport`]).
pub const HETERO_TOP_KEYS: &[&str] = &[
    "jobs",
    "moves",
    "path_independence",
    "procs",
    "schema_version",
    "seed",
    "solvers",
    "speeds",
    "stochastic",
];
/// Keys of one solver row ([`crate::hetero::HeteroSolverPoint`]).
pub const HETERO_SOLVER_KEYS: &[&str] = &[
    "budget_violations",
    "instances",
    "max_ratio_x1000",
    "solver",
    "total_lower_bound",
    "total_moves",
    "total_scaled_makespan",
];
/// Keys of the stochastic section ([`crate::hetero::HeteroStochasticPoint`]).
pub const HETERO_STOCHASTIC_KEYS: &[&str] = &[
    "improved_trials",
    "moves_effective",
    "moves_mean_based",
    "regressed_trials",
    "theta_pct",
    "total_effective",
    "total_mean_based",
    "trials",
];
/// Keys of the path-independence section
/// ([`crate::hetero::HeteroPathPoint`]).
pub const HETERO_PATH_KEYS: &[&str] = &[
    "exact_matches",
    "fault_free",
    "max_hamming",
    "max_ratio_x1000",
    "seeds",
    "total_hamming",
];

/// Top-level keys of a compete report ([`crate::compete::CompeteReport`]).
pub const COMPETE_TOP_KEYS: &[&str] = &[
    "arrivals_per_epoch",
    "epochs",
    "grid",
    "max_size",
    "procs",
    "schema_version",
    "seed",
    "speeds",
];
/// Keys of one `grid` cell ([`crate::compete::CompeteCell`]).
pub const COMPETE_CELL_KEYS: &[&str] = &[
    "adversary",
    "certificate_overspend",
    "epochs_scored",
    "final_makespan",
    "final_opt",
    "mean_ratio_x1000",
    "policy",
    "total_migration_cost",
    "total_moves",
    "worst_ratio_x1000",
];

/// Top-level keys of a lint report ([`lrb_lint::report_json`]).
pub const LINT_TOP_KEYS: &[&str] = &[
    "call_graph",
    "files",
    "findings",
    "rules",
    "schema_version",
    "suppressions",
];
/// Keys of the `call_graph` stats block.
pub const LINT_GRAPH_KEYS: &[&str] = &["edges", "functions", "resolved_calls", "unresolved_calls"];
/// Keys of one `rules` registry entry.
pub const LINT_RULE_KEYS: &[&str] = &["findings", "rule"];
/// Keys of one finding.
pub const LINT_FINDING_KEYS: &[&str] = &["col", "line", "message", "path", "rule"];
/// Keys of the `suppressions` inventory block.
pub const LINT_SUPPRESSION_KEYS: &[&str] = &["sites", "stale", "total"];
/// Keys of one suppression site.
pub const LINT_SITE_KEYS: &[&str] = &["line", "path", "rule", "used"];

/// Require `value` to be an object carrying *exactly* `keys` — an unknown
/// key and a missing key are both schema violations.
fn expect_exact_keys(value: &Value, ctx: &str, keys: &[&str]) -> Result<(), String> {
    let Some(entries) = value.as_object() else {
        return Err(format!("{ctx}: expected a JSON object"));
    };
    for (k, _) in entries {
        if !keys.contains(&k.as_str()) {
            return Err(format!("{ctx}: unknown field '{k}'"));
        }
    }
    for k in keys {
        if !entries.iter().any(|(name, _)| name == k) {
            return Err(format!("{ctx}: missing field '{k}'"));
        }
    }
    Ok(())
}

/// Require `schema_version` to equal `expected`.
fn expect_version(value: &Value, ctx: &str, expected: u32) -> Result<(), String> {
    match value.get("schema_version").and_then(Value::as_u64) {
        Some(v) if v == expected as u64 => Ok(()),
        Some(v) => Err(format!("{ctx}: schema_version {v}, expected {expected}")),
        None => Err(format!("{ctx}: schema_version missing or not an integer")),
    }
}

/// Validate every element of the array at `field` against `keys`.
fn expect_array_of(value: &Value, ctx: &str, field: &str, keys: &[&str]) -> Result<(), String> {
    let Some(arr) = value.get(field).and_then(Value::as_array) else {
        return Err(format!("{ctx}: '{field}' is not an array"));
    };
    for (i, item) in arr.iter().enumerate() {
        expect_exact_keys(item, &format!("{ctx}.{field}[{i}]"), keys)?;
    }
    Ok(())
}

/// Validate a bench report document against the pinned schema.
pub fn validate_bench(value: &Value) -> Result<(), String> {
    expect_exact_keys(value, "bench", BENCH_TOP_KEYS)?;
    expect_version(value, "bench", BENCH_SCHEMA_VERSION)?;
    expect_array_of(value, "bench", "rungs", BENCH_RUNG_KEYS)?;
    expect_array_of(value, "bench", "thread_curve", BENCH_POINT_KEYS)
}

/// Validate a chaos report document against the pinned schema.
pub fn validate_chaos(value: &Value) -> Result<(), String> {
    expect_exact_keys(value, "chaos", CHAOS_TOP_KEYS)?;
    expect_version(value, "chaos", CHAOS_SCHEMA_VERSION)?;
    expect_array_of(value, "chaos", "points", CHAOS_POINT_KEYS)
}

/// Validate an online report document against the pinned schema.
pub fn validate_online(value: &Value) -> Result<(), String> {
    expect_exact_keys(value, "online", ONLINE_TOP_KEYS)?;
    expect_version(value, "online", ONLINE_SCHEMA_VERSION)?;
    expect_array_of(value, "online", "epoch_curve", ONLINE_POINT_KEYS)
}

/// Validate a hetero report document against the pinned schema.
pub fn validate_hetero(value: &Value) -> Result<(), String> {
    expect_exact_keys(value, "hetero", HETERO_TOP_KEYS)?;
    expect_version(value, "hetero", crate::hetero::HETERO_SCHEMA_VERSION)?;
    expect_array_of(value, "hetero", "solvers", HETERO_SOLVER_KEYS)?;
    let stochastic = value
        .get("stochastic")
        .ok_or("hetero: missing stochastic block")?;
    expect_exact_keys(stochastic, "hetero.stochastic", HETERO_STOCHASTIC_KEYS)?;
    let path = value
        .get("path_independence")
        .ok_or("hetero: missing path_independence block")?;
    expect_exact_keys(path, "hetero.path_independence", HETERO_PATH_KEYS)
}

/// Validate a compete report document against the pinned schema.
pub fn validate_compete(value: &Value) -> Result<(), String> {
    expect_exact_keys(value, "compete", COMPETE_TOP_KEYS)?;
    expect_version(value, "compete", crate::compete::COMPETE_SCHEMA_VERSION)?;
    expect_array_of(value, "compete", "grid", COMPETE_CELL_KEYS)
}

/// Validate a serve snapshot document against the consumer-side pinned
/// schema. The daemon validates with its own copy on every write and load;
/// this validator is what `lrb` (and the check.sh smoke gate) run against
/// snapshots found on disk.
pub fn validate_serve(value: &Value) -> Result<(), String> {
    expect_exact_keys(value, "serve", SERVE_TOP_KEYS)?;
    expect_version(value, "serve", lrb_serve::snapshot::SERVE_SCHEMA_VERSION)?;
    let Some(tenants) = value.get("tenants").and_then(Value::as_array) else {
        return Err("serve: 'tenants' is not an array".to_string());
    };
    for (i, tenant) in tenants.iter().enumerate() {
        let ctx = format!("serve.tenants[{i}]");
        expect_exact_keys(tenant, &ctx, SERVE_TENANT_KEYS)?;
        expect_array_of(tenant, &ctx, "jobs", SERVE_JOB_KEYS)?;
    }
    Ok(())
}

/// Validate a lint report document (`LINT_1.json`) against the pinned
/// schema. The analyzer validates its own emission via the golden sets in
/// `lrb-lint`; this is the independent consumer-side validator the
/// check.sh gate runs against the committed report.
pub fn validate_lint(value: &Value) -> Result<(), String> {
    expect_exact_keys(value, "lint", LINT_TOP_KEYS)?;
    expect_version(value, "lint", lrb_lint::LINT_SCHEMA_VERSION)?;
    let graph = value
        .get("call_graph")
        .ok_or("lint: missing call_graph block")?;
    expect_exact_keys(graph, "lint.call_graph", LINT_GRAPH_KEYS)?;
    expect_array_of(value, "lint", "rules", LINT_RULE_KEYS)?;
    expect_array_of(value, "lint", "findings", LINT_FINDING_KEYS)?;
    let sup = value
        .get("suppressions")
        .ok_or("lint: missing suppressions block")?;
    expect_exact_keys(sup, "lint.suppressions", LINT_SUPPRESSION_KEYS)?;
    expect_array_of(sup, "lint.suppressions", "sites", LINT_SITE_KEYS)
}

/// Validate a trace export against the pinned schema. Events are
/// dispatched on their `ph` phase: complete spans and instants have
/// different exact key sets, and any other phase is a violation.
pub fn validate_trace(value: &Value) -> Result<(), String> {
    expect_exact_keys(value, "trace", TRACE_TOP_KEYS)?;
    expect_version(value, "trace", lrb_obs::TRACE_SCHEMA_VERSION)?;
    let meta = value
        .get("otherData")
        .ok_or("trace: missing otherData block")?;
    expect_exact_keys(meta, "trace.otherData", TRACE_META_KEYS)?;
    let Some(events) = value.get("traceEvents").and_then(Value::as_array) else {
        return Err("trace: 'traceEvents' is not an array".to_string());
    };
    for (i, event) in events.iter().enumerate() {
        let ctx = format!("trace.traceEvents[{i}]");
        let keys = match event.get("ph").and_then(Value::as_str) {
            Some("X") => TRACE_COMPLETE_KEYS,
            Some("i") => TRACE_INSTANT_KEYS,
            Some(other) => return Err(format!("{ctx}: unknown phase '{other}'")),
            None => return Err(format!("{ctx}: missing phase 'ph'")),
        };
        expect_exact_keys(event, &ctx, keys)?;
        expect_exact_keys(
            event.get("args").expect("args key checked above"),
            &format!("{ctx}.args"),
            TRACE_ARG_KEYS,
        )?;
    }
    Ok(())
}

/// Serialize a report and self-check it against its validator before the
/// JSON leaves the process; a schema drift becomes a loud CLI error
/// instead of a silently changed file.
pub fn to_validated_json<T: serde::Serialize>(
    report: &T,
    validate: fn(&Value) -> Result<(), String>,
) -> Result<String, String> {
    let json = serde_json::to_string_pretty(report).map_err(|e| format!("encode error: {e}"))?;
    let value: Value = serde_json::from_str(&json).map_err(|e| format!("self-parse error: {e}"))?;
    validate(&value).map_err(|e| format!("report failed its own schema: {e}"))?;
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaos_doc(version: u64, points: &str) -> Value {
        serde_json::from_str(&format!(
            r#"{{"schema_version": {version}, "sites": 1, "servers": 1,
                "epochs": 1, "moves": 1, "seed": 0, "points": {points}}}"#
        ))
        .unwrap()
    }

    fn push_field(v: &mut Value, key: &str, val: Value) {
        match v {
            Value::Object(entries) => entries.push((key.to_string(), val)),
            _ => panic!("expected object"),
        }
    }

    fn remove_field(v: &mut Value, key: &str) {
        match v {
            Value::Object(entries) => entries.retain(|(k, _)| k != key),
            _ => panic!("expected object"),
        }
    }

    #[test]
    fn unknown_and_missing_fields_are_both_rejected() {
        let mut v = chaos_doc(1, "[]");
        validate_chaos(&v).unwrap();
        push_field(&mut v, "surprise", Value::Bool(true));
        assert!(validate_chaos(&v)
            .unwrap_err()
            .contains("unknown field 'surprise'"));
        remove_field(&mut v, "surprise");
        remove_field(&mut v, "sites");
        assert!(validate_chaos(&v)
            .unwrap_err()
            .contains("missing field 'sites'"));
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let v = chaos_doc(99, "[]");
        assert!(validate_chaos(&v)
            .unwrap_err()
            .contains("schema_version 99"));
    }

    #[test]
    fn nested_points_are_checked() {
        let v = chaos_doc(1, r#"[{"bogus": 1}]"#);
        let err = validate_chaos(&v).unwrap_err();
        assert!(err.contains("points[0]"), "{err}");
    }

    fn compete_doc(version: u64, grid: &str) -> Value {
        serde_json::from_str(&format!(
            r#"{{"schema_version": {version}, "procs": 3, "epochs": 4,
                "arrivals_per_epoch": 2, "max_size": 9, "seed": 0,
                "speeds": [1, 1, 1], "grid": {grid}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn compete_documents_are_validated_in_both_directions() {
        let cell = r#"{"adversary": "adaptive", "certificate_overspend": 0,
                       "epochs_scored": 4, "final_makespan": 9, "final_opt": 6,
                       "mean_ratio_x1000": 1200, "policy": "move-bank",
                       "total_migration_cost": 3, "total_moves": 2,
                       "worst_ratio_x1000": 1500}"#;
        validate_compete(&compete_doc(1, &format!("[{cell}]"))).unwrap();
        assert!(validate_compete(&compete_doc(7, "[]"))
            .unwrap_err()
            .contains("schema_version 7"));
        let short = cell.replace(r#""final_opt""#, r#""final_opt_typo""#);
        let err = validate_compete(&compete_doc(1, &format!("[{short}]"))).unwrap_err();
        assert!(err.contains("final_opt"), "{err}");
        let extra = cell.replace(r#""total_moves": 2"#, r#""total_moves": 2, "smuggled": 1"#);
        assert!(validate_compete(&compete_doc(1, &format!("[{extra}]")))
            .unwrap_err()
            .contains("unknown field 'smuggled'"));
    }

    fn trace_doc(events: &str) -> Value {
        serde_json::from_str(&format!(
            r#"{{"displayTimeUnit": "ms",
                "otherData": {{"attributed_pct": 99.0, "determinism_hash": "0x0",
                               "scenario": "s", "seed": 0, "solver": "m",
                               "span_count": 1, "threads": 1}},
                "schema_version": 1, "traceEvents": {events}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn trace_events_are_dispatched_on_phase() {
        let span = r#"{"args": {"seq": 0, "v": 0}, "dur": 1.0, "name": "a",
                       "ph": "X", "pid": 1, "tid": 0, "ts": 0.0}"#;
        let instant = r#"{"args": {"seq": 1, "v": 2}, "name": "b", "ph": "i",
                          "pid": 1, "s": "t", "tid": 0, "ts": 0.5}"#;
        validate_trace(&trace_doc(&format!("[{span}, {instant}]"))).unwrap();
        // A complete event missing `dur`, an instant with an extra key, an
        // unknown phase, and smuggled args are each violations.
        let short = span.replace(r#""dur": 1.0, "#, "");
        assert!(validate_trace(&trace_doc(&format!("[{short}]")))
            .unwrap_err()
            .contains("missing field 'dur'"));
        let extra = instant.replace(r#""s": "t""#, r#""s": "t", "smuggled": 1"#);
        assert!(validate_trace(&trace_doc(&format!("[{extra}]")))
            .unwrap_err()
            .contains("unknown field 'smuggled'"));
        let weird = span.replace(r#""ph": "X""#, r#""ph": "B""#);
        assert!(validate_trace(&trace_doc(&format!("[{weird}]")))
            .unwrap_err()
            .contains("unknown phase 'B'"));
        let args = span.replace(r#""v": 0"#, r#""v": 0, "note": "hi""#);
        assert!(validate_trace(&trace_doc(&format!("[{args}]")))
            .unwrap_err()
            .contains("args"));
    }

    #[test]
    fn lint_keys_mirror_the_analyzer_producer() {
        // Same discipline as the serve pins: the consumer-side key sets
        // must track the analyzer's consts exactly; drift in either
        // direction is a schema change needing a version bump on both
        // sides (and the lint gate itself cross-checks report.rs against
        // the golden sets pinned in lrb-lint).
        assert_eq!(LINT_TOP_KEYS, lrb_lint::LINT_TOP_KEYS);
        assert_eq!(LINT_GRAPH_KEYS, lrb_lint::LINT_GRAPH_KEYS);
        assert_eq!(LINT_RULE_KEYS, lrb_lint::LINT_RULE_KEYS);
        assert_eq!(LINT_FINDING_KEYS, lrb_lint::LINT_FINDING_KEYS);
        assert_eq!(LINT_SUPPRESSION_KEYS, lrb_lint::LINT_SUPPRESSION_KEYS);
        assert_eq!(LINT_SITE_KEYS, lrb_lint::LINT_SITE_KEYS);
    }

    #[test]
    fn lint_reports_validate_and_reject_drift() {
        let files = [(
            "crates/lrb-core/src/lib.rs",
            "pub fn f(load: u64) -> u64 {\n    load.saturating_add(1)\n}\n",
        )];
        let analysis = lrb_lint::analyze_sources(&files, &lrb_obs::NoopRecorder);
        let json = lrb_lint::report_json(&analysis);
        let mut doc: Value = serde_json::from_str(&json).unwrap();
        validate_lint(&doc).unwrap();

        push_field(&mut doc, "vendor_extension", Value::Null);
        assert!(validate_lint(&doc).unwrap_err().contains("unknown field"));
        remove_field(&mut doc, "vendor_extension");
        remove_field(&mut doc, "call_graph");
        assert!(validate_lint(&doc).unwrap_err().contains("call_graph"));

        let stale: Value =
            serde_json::from_str(&json.replace("\"schema_version\": 1", "\"schema_version\": 99"))
                .unwrap();
        assert!(validate_lint(&stale)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn serve_keys_mirror_the_daemon_producer() {
        // The consumer-side pins must track the producer's consts exactly;
        // a drift in either direction is a schema change that needs a
        // version bump on both sides.
        assert_eq!(SERVE_TOP_KEYS, lrb_serve::snapshot::SERVE_TOP_KEYS);
        assert_eq!(SERVE_TENANT_KEYS, lrb_serve::snapshot::SERVE_TENANT_KEYS);
        assert_eq!(SERVE_JOB_KEYS, lrb_serve::snapshot::SERVE_JOB_KEYS);
    }

    #[test]
    fn serve_snapshots_validate_and_reject_drift() {
        let mut state = lrb_serve::ServeState::new(lrb_serve::ServeConfig::default());
        let events = [
            lrb_serve::wal::LoggedEvent::Arrive {
                tenant: 1,
                key: 10,
                size: 4,
                cost: 1,
                proc: 0,
            },
            lrb_serve::wal::LoggedEvent::Arrive {
                tenant: 1,
                key: 11,
                size: 2,
                cost: 1,
                proc: 2,
            },
        ];
        state.apply_events(&events);
        let json = serde_json::to_string(&state.capture()).unwrap();
        let doc: Value = serde_json::from_str(&json).unwrap();
        validate_serve(&doc).unwrap();
        let mut extra = doc.clone();
        push_field(
            &mut extra,
            "smuggled",
            Value::Number(serde_json::Number::U64(1)),
        );
        assert!(validate_serve(&extra)
            .unwrap_err()
            .contains("unknown field 'smuggled'"));
        let short: Value =
            serde_json::from_str(&json.replacen(r#""applied""#, r#""applied_typo""#, 1)).unwrap();
        assert!(validate_serve(&short).unwrap_err().contains("applied"));
    }
}

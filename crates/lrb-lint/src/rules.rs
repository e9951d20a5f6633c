//! The lint rule engine: the lexical layer of the analyzer, plus the rule
//! registry and pinned golden key sets shared with the semantic passes.
//!
//! Every rule here is lexical — it walks the token stream from
//! [`crate::lexer`] with test regions (`#[cfg(test)]` / `#[test]` items)
//! masked out, so production invariants are enforced without constraining
//! test code. The same rule *names* are reused by the call-graph passes in
//! [`crate::taint`], which widen three of them beyond their lexical path
//! scope; suppression directives therefore work identically for both
//! layers. A suppression must name the rule *and* give a reason; it covers
//! findings on its own line (trailing form) and on the next code line
//! (preceding form), and must suppress a *live* finding — a stale allow is
//! itself a finding (`stale-suppression`).

use crate::lexer::{Tok, TokKind};
use crate::scan::Scan;

/// Registry of every rule: `(name, one-line rationale)`.
pub const RULES: &[(&str, &str)] = &[
    (
        "no-nondeterminism",
        "solver crates (lrb-core, lrb-engine) must not read clocks or use hash-ordered \
         collections — nor reach code that does, anywhere in the workspace; \
         reproducibility of the paper's guarantees depends on it",
    ),
    (
        "no-panic-core",
        "non-test lrb-core and lrb-serve code must not unwrap/expect/panic, and no panic \
         site anywhere may be reachable from the core/engine/serve public API; hot paths \
         and the daemon return Error or carry a reviewed allow at the root-cause site",
    ),
    (
        "checked-arith",
        "in lrb-core, bare +/-/* on load-typed values — by name, or by dataflow through \
         let bindings and fn signatures — must go through checked_*/saturating_* \
         (u128-widened arithmetic is exempt)",
    ),
    (
        "obs-name-registry",
        "metric names passed to Recorder calls must be lrb_obs::names:: consts, never \
         inline string literals",
    ),
    (
        "unsafe-audit",
        "every `unsafe` must be immediately preceded by a // SAFETY: comment",
    ),
    (
        "schema-key-pinning",
        "the JSON report key sets in lrb-cli/src/report.rs must match the golden sets \
         pinned in lrb-lint",
    ),
    (
        "stale-suppression",
        "every lint: allow must suppress a live finding; one that no longer fires is a \
         hard error — delete it or move it to the root-cause site the reachability \
         passes point at",
    ),
    (
        "allow-syntax",
        "lint: allow directives must name both a rule and a reason",
    ),
];

/// Golden copies of the pinned report key sets. `lrb-cli/src/report.rs` is
/// the producer-side pin; this is the independent consumer-side pin. A key
/// added or removed there without updating this table (a conscious,
/// reviewed act) fails the lint gate.
pub const GOLDEN_KEY_SETS: &[(&str, &[&str])] = &[
    (
        "BENCH_TOP_KEYS",
        &[
            "available_parallelism",
            "repeats",
            "rungs",
            "scenario",
            "schema_version",
            "seed",
            "solver",
            "thread_curve",
        ],
    ),
    ("BENCH_RUNG_KEYS", &["instances", "jobs", "name", "procs"]),
    (
        "BENCH_POINT_KEYS",
        &[
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
        ],
    ),
    (
        "CHAOS_TOP_KEYS",
        &[
            "epochs",
            "moves",
            "points",
            "schema_version",
            "seed",
            "servers",
            "sites",
        ],
    ),
    (
        "CHAOS_POINT_KEYS",
        &[
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
        ],
    ),
    (
        "ONLINE_TOP_KEYS",
        &[
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
        ],
    ),
    (
        "ONLINE_POINT_KEYS",
        &[
            "arrivals",
            "avg_load",
            "banked",
            "departures",
            "epoch",
            "makespan",
            "migration_cost",
            "migrations",
        ],
    ),
    (
        "HETERO_TOP_KEYS",
        &[
            "jobs",
            "moves",
            "path_independence",
            "procs",
            "schema_version",
            "seed",
            "solvers",
            "speeds",
            "stochastic",
        ],
    ),
    (
        "HETERO_SOLVER_KEYS",
        &[
            "budget_violations",
            "instances",
            "max_ratio_x1000",
            "solver",
            "total_lower_bound",
            "total_moves",
            "total_scaled_makespan",
        ],
    ),
    (
        "HETERO_STOCHASTIC_KEYS",
        &[
            "improved_trials",
            "moves_effective",
            "moves_mean_based",
            "regressed_trials",
            "theta_pct",
            "total_effective",
            "total_mean_based",
            "trials",
        ],
    ),
    (
        "HETERO_PATH_KEYS",
        &[
            "exact_matches",
            "fault_free",
            "max_hamming",
            "max_ratio_x1000",
            "seeds",
            "total_hamming",
        ],
    ),
    (
        "COMPETE_TOP_KEYS",
        &[
            "arrivals_per_epoch",
            "epochs",
            "grid",
            "max_size",
            "procs",
            "schema_version",
            "seed",
            "speeds",
        ],
    ),
    (
        "COMPETE_CELL_KEYS",
        &[
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
        ],
    ),
    (
        "TRACE_TOP_KEYS",
        &[
            "displayTimeUnit",
            "otherData",
            "schema_version",
            "traceEvents",
        ],
    ),
    (
        "TRACE_META_KEYS",
        &[
            "attributed_pct",
            "determinism_hash",
            "scenario",
            "seed",
            "solver",
            "span_count",
            "threads",
        ],
    ),
    (
        "TRACE_COMPLETE_KEYS",
        &["args", "dur", "name", "ph", "pid", "tid", "ts"],
    ),
    (
        "TRACE_INSTANT_KEYS",
        &["args", "name", "ph", "pid", "s", "tid", "ts"],
    ),
    ("TRACE_ARG_KEYS", &["seq", "v"]),
    ("SERVE_TOP_KEYS", &["applied", "schema_version", "tenants"]),
    (
        "SERVE_TENANT_KEYS",
        &[
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
        ],
    ),
    ("SERVE_JOB_KEYS", &["cost", "key", "proc", "size"]),
    (
        "LINT_TOP_KEYS",
        &[
            "call_graph",
            "files",
            "findings",
            "rules",
            "schema_version",
            "suppressions",
        ],
    ),
    (
        "LINT_GRAPH_KEYS",
        &["edges", "functions", "resolved_calls", "unresolved_calls"],
    ),
    ("LINT_RULE_KEYS", &["findings", "rule"]),
    (
        "LINT_FINDING_KEYS",
        &["col", "line", "message", "path", "rule"],
    ),
    ("LINT_SUPPRESSION_KEYS", &["sites", "stale", "total"]),
    ("LINT_SITE_KEYS", &["line", "path", "rule", "used"]),
];

/// One lint finding at an exact source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Name of the rule that fired (a key of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// Words that mark an identifier as load-typed for the `checked-arith` rule.
const LOAD_WORDS: &[&str] = &[
    "load", "size", "cost", "makespan", "total", "spent", "bank", "sum",
];

/// Identifiers that contain a load word but are not load-typed values.
const LOAD_WORD_EXEMPT: &[&str] = &["usize", "isize"];

/// `Recorder` methods whose name arguments must use `names::` consts.
const RECORDER_METHODS: &[&str] = &[
    "incr",
    "observe",
    "time",
    "span_with",
    "instant",
    "enter",
    "exit",
    "exit_enter",
    "switch",
];

pub(crate) fn is_loadish(name: &str) -> bool {
    if LOAD_WORD_EXEMPT.contains(&name) {
        return false;
    }
    let lower = name.to_ascii_lowercase();
    LOAD_WORDS.iter().any(|w| lower.contains(w))
}

/// Which rules apply lexically to `path` (workspace-relative,
/// `/`-separated). The semantic passes use the same scopes to decide which
/// files the lexical layer already owns.
pub(crate) struct Scope {
    pub(crate) nondeterminism: bool,
    pub(crate) panic_core: bool,
    pub(crate) checked_arith: bool,
    pub(crate) obs_names: bool,
    pub(crate) unsafe_audit: bool,
    pub(crate) schema_keys: bool,
}

impl Scope {
    pub(crate) fn of(path: &str) -> Self {
        let p = path.replace('\\', "/");
        let in_core = p.contains("crates/lrb-core/src/");
        let in_engine = p.contains("crates/lrb-engine/src/");
        let in_serve = p.contains("crates/lrb-serve/src/");
        let in_crate_src = p.contains("crates/") && p.contains("/src/");
        Scope {
            nondeterminism: in_core || in_engine,
            // The daemon must degrade via Reject/Error responses, never
            // abort: a panic in lrb-serve is an availability bug.
            panic_core: in_core || in_serve,
            checked_arith: in_core,
            obs_names: in_crate_src
                && !p.contains("crates/lrb-obs/")
                && !p.contains("crates/lrb-lint/"),
            unsafe_audit: true,
            schema_keys: p.ends_with("crates/lrb-cli/src/report.rs"),
        }
    }
}

/// Lint one file's source with the full analyzer (lexical rules *and* the
/// semantic passes, over a single-file virtual workspace). `path` decides
/// which rules apply; it should be workspace-relative (e.g.
/// `crates/lrb-core/src/greedy.rs`).
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    crate::lint_sources(&[(path, src)])
}

/// Run every lexical rule in `path`'s scope over one file's token scan.
pub(crate) fn lexical_findings(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    let scope = Scope::of(path);
    if scope.nondeterminism {
        rule_no_nondeterminism(scan, path, findings);
    }
    if scope.panic_core {
        rule_no_panic_core(scan, path, findings);
    }
    if scope.checked_arith {
        rule_checked_arith(scan, path, findings);
    }
    if scope.obs_names {
        rule_obs_names(scan, path, findings);
    }
    if scope.unsafe_audit {
        rule_unsafe_audit(scan, path, findings);
    }
    if scope.schema_keys {
        rule_schema_keys(scan, path, findings);
    }
}

fn push(findings: &mut Vec<Finding>, rule: &'static str, path: &str, tok: &Tok, message: String) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line: tok.line,
        col: tok.col,
        message,
    });
}

fn rule_no_nondeterminism(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" => push(
                findings,
                "no-nondeterminism",
                path,
                t,
                format!(
                    "{} in a solver crate: iteration order is nondeterministic; use \
                     BTreeMap/BTreeSet or index-keyed Vecs (allow only for keyed lookups \
                     that are never iterated)",
                    t.text
                ),
            ),
            "Instant" | "SystemTime"
                if scan.sig_text(s + 1) == "::" && scan.sig_text(s + 2) == "now" =>
            {
                push(
                    findings,
                    "no-nondeterminism",
                    path,
                    t,
                    format!(
                        "{}::now() in a solver crate: wall-clock reads must never \
                         influence results (allow only for telemetry)",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
}

fn rule_no_panic_core(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_method = matches!(name, "unwrap" | "expect")
            && s > 0
            && scan.sig_text(s - 1) == "."
            && scan.sig_text(s + 1) == "(";
        let is_macro = matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && scan.sig_text(s + 1) == "!";
        if is_method || is_macro {
            push(
                findings,
                "no-panic-core",
                path,
                t,
                format!(
                    "{name}{} in non-test lrb-core code: return Error or document the \
                     invariant with an allow",
                    if is_macro { "!" } else { "()" }
                ),
            );
        }
    }
}

fn rule_checked_arith(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        if t.kind != TokKind::Punct || !matches!(t.text.as_str(), "+" | "-" | "*") {
            continue;
        }
        // Binary use only: the previous token must be able to end an operand.
        let binary = s > 0
            && scan.sig_tok(s - 1).is_some_and(|p| {
                matches!(p.kind, TokKind::Ident | TokKind::Num)
                    || matches!(p.text.as_str(), ")" | "]")
            });
        if !binary {
            continue;
        }
        // u128/i128-widened arithmetic is exact by construction, and float
        // arithmetic cannot overflow-panic (its determinism is a separate
        // concern the nondeterminism rule owns).
        let widened = (s.saturating_sub(5)..s)
            .chain(s + 1..(s + 6).min(scan.sig.len()))
            .any(|k| matches!(scan.sig_text(k), "u128" | "i128" | "f64" | "f32"));
        if widened {
            continue;
        }
        // Nearest identifier on each side (skipping closing/opening brackets
        // and field dots) decides whether the operands look load-typed.
        let prev_ident = (s.saturating_sub(3)..s)
            .rev()
            .filter_map(|k| scan.sig_tok(k))
            .find(|t| t.kind == TokKind::Ident);
        let next_ident = (s + 1..(s + 4).min(scan.sig.len()))
            .filter_map(|k| scan.sig_tok(k))
            .find(|t| t.kind == TokKind::Ident);
        let loadish = prev_ident
            .into_iter()
            .chain(next_ident)
            .find(|t| is_loadish(&t.text));
        if let Some(operand) = loadish {
            push(
                findings,
                "checked-arith",
                path,
                t,
                format!(
                    "bare `{}` on load-typed operand `{}`: use checked_*/saturating_* \
                     (or widen through u128)",
                    t.text, operand.text
                ),
            );
        }
    }
}

fn rule_obs_names(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        let is_call = t.kind == TokKind::Ident
            && RECORDER_METHODS.contains(&t.text.as_str())
            && s > 0
            && scan.sig_text(s - 1) == "."
            && scan.sig_text(s + 1) == "(";
        if !is_call {
            continue;
        }
        // Flag every string literal inside the call's parentheses.
        let mut depth = 0usize;
        let mut k = s + 1;
        while let Some(a) = scan.sig_tok(k) {
            match a.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if a.kind == TokKind::Str {
                push(
                    findings,
                    "obs-name-registry",
                    path,
                    a,
                    format!(
                        "string literal {} passed to Recorder::{}; register it as a \
                         const in lrb_obs::names and reference that",
                        a.text, t.text
                    ),
                );
            }
            k += 1;
        }
    }
}

fn rule_unsafe_audit(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for s in 0..scan.sig.len() {
        if scan.is_test(s) {
            continue;
        }
        let Some(t) = scan.sig_tok(s) else { continue };
        if t.kind != TokKind::Ident || t.text != "unsafe" {
            continue;
        }
        // Walk the raw stream backwards over the comments directly above.
        let raw = scan.sig[s];
        let documented = scan.toks[..raw]
            .iter()
            .rev()
            .take_while(|p| p.is_comment())
            .any(|p| p.text.contains("SAFETY:"));
        if !documented {
            push(
                findings,
                "unsafe-audit",
                path,
                t,
                "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
            );
        }
    }
}

fn rule_schema_keys(scan: &Scan<'_>, path: &str, findings: &mut Vec<Finding>) {
    for &(name, golden) in GOLDEN_KEY_SETS {
        // Find `const <name>` (the definition, not uses in validators).
        let def = (0..scan.sig.len())
            .find(|&s| scan.sig_text(s) == "const" && scan.sig_text(s + 1) == name);
        let Some(s) = def else {
            findings.push(Finding {
                rule: "schema-key-pinning",
                path: path.to_string(),
                line: 1,
                col: 1,
                message: format!("pinned key-set const {name} is missing from report.rs"),
            });
            continue;
        };
        let def_tok = scan.sig_tok(s + 1).cloned();
        let mut keys: Vec<String> = Vec::new();
        let mut k = s + 2;
        while !matches!(scan.sig_text(k), ";" | "") {
            if let Some(t) = scan.sig_tok(k) {
                if t.kind == TokKind::Str {
                    keys.push(t.text.trim_matches('"').to_string());
                }
            }
            k += 1;
        }
        let missing: Vec<&str> = golden
            .iter()
            .copied()
            .filter(|g| !keys.iter().any(|k| k == g))
            .collect();
        let extra: Vec<&String> = keys
            .iter()
            .filter(|k| !golden.contains(&k.as_str()))
            .collect();
        if !missing.is_empty() || !extra.is_empty() {
            let tok = def_tok.unwrap_or(Tok {
                kind: TokKind::Ident,
                text: name.to_string(),
                line: 1,
                col: 1,
            });
            push(
                findings,
                "schema-key-pinning",
                path,
                &tok,
                format!(
                    "{name} drifted from the golden set: missing {missing:?}, unexpected \
                     {extra:?}; schema changes need a version bump and a golden update in \
                     lrb-lint",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORE: &str = "crates/lrb-core/src/some_solver.rs";

    #[test]
    fn test_regions_are_masked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let f = lint_source(CORE, src);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].line, f[0].rule), (1, "no-panic-core"));
    }

    #[test]
    fn cfg_not_test_stays_live() {
        let src = "#[cfg(not(test))]\nfn live() { x.unwrap(); }\n";
        let f = lint_source(CORE, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn allow_needs_a_reason() {
        let src = "// lint: allow(no-panic-core)\nfn f() { x.unwrap(); }\n";
        let f = lint_source(CORE, src);
        assert!(f.iter().any(|f| f.rule == "allow-syntax"));
        assert!(f.iter().any(|f| f.rule == "no-panic-core"));
    }

    #[test]
    fn trailing_and_preceding_allows_suppress() {
        let src = "fn f() { x.unwrap(); } // lint: allow(no-panic-core, invariant: x is Some)\n\
                   // lint: allow(no-panic-core, same, on the next line)\n\
                   fn g() { y.unwrap(); }\n";
        assert_eq!(lint_source(CORE, src), vec![]);
    }

    #[test]
    fn allow_is_rule_specific() {
        let src = "// lint: allow(no-nondeterminism, wrong rule)\nfn f() { x.unwrap(); }\n";
        let f = lint_source(CORE, src);
        // The unwrap still fires, and the mismatched allow — suppressing
        // nothing — is itself a stale-suppression finding.
        assert_eq!(f.len(), 2);
        assert!(f.iter().any(|f| f.rule == "no-panic-core" && f.line == 2));
        assert!(f
            .iter()
            .any(|f| f.rule == "stale-suppression" && f.line == 1));
    }

    #[test]
    fn out_of_scope_paths_are_quiet() {
        let src = "fn f() { x.unwrap(); let m = HashMap::new(); }\n";
        assert_eq!(lint_source("crates/lrb-cli/src/commands.rs", src), vec![]);
    }
}

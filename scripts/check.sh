#!/usr/bin/env bash
# Offline-friendly CI gate: build, test, format, lint.
#
# Everything runs against the vendored path dependencies in vendor/, so no
# network or registry access is needed. Every step is a hard gate.
#
#   scripts/check.sh          # full gate

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

# --locked doubles as the lockfile-drift gate: a stale Cargo.lock fails the
# build instead of being silently rewritten.
run cargo build --release --workspace --offline --locked
# The workspace [profile.test] sets overflow-checks = true, so this whole
# suite runs with integer-overflow detection on.
run cargo test -q --workspace --offline

# Certification suites: the exact-oracle differential tests and the
# metamorphic property tests are the PR-3 quality gate — run them explicitly
# (they are part of the workspace run above, but a bare name here makes a
# regression impossible to miss in the log).
run cargo test -q --release --offline --test differential
run cargo test -q --release --offline --test metamorphic
# Online-vs-batch equivalence (PR-5): every checkpoint of the streaming
# subsystem must be bit-identical to a from-scratch batch solve at every
# engine thread count. Seeded streams, ~a second in release — well inside
# the gate's wall-clock budget.
run cargo test -q --release --offline --test online_equivalence
# Heterogeneous-machine certification (PR-8): the speed-scaled solvers are
# certified cell-by-cell against the uniform-machine exact oracle, and the
# metamorphic families (equal-speeds bit-identity, uniform speed scaling,
# relabeling, engine thread invariance, path independence) must all hold.
run cargo test -q --release --offline --test differential_hetero
run cargo test -q --release --offline --test metamorphic_hetero
# Competitive-ratio lab (PR-9): every short event stream is replayed
# through all three migration policies against the incremental exact
# oracle (realized makespan never beats OPT, certificates never
# overspent, the Maack 8/3 envelope holds), and the metamorphic axes
# (size scaling, arrival permutation, equal-speeds collapse, engine
# thread invariance) must all hold.
run cargo test -q --release --offline --test differential_online
run cargo test -q --release --offline --test metamorphic_online_policies

# Bench smoke test: `lrb bench --smoke` must finish quickly and emit a
# schema-versioned BENCH_4-style report with a thread-scaling curve.
echo "==> bench smoke test (lrb bench --smoke)"
bench_tmp="$(mktemp)"
trap 'rm -f "$bench_tmp"' EXIT
cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    bench --smoke --threads 1,2 --out "$bench_tmp" >/dev/null
if ! grep -q '"schema_version": 4' "$bench_tmp"; then
    echo "bench smoke test failed: schema_version 4 missing" >&2
    exit 1
fi
if ! grep -q '"thread_curve"' "$bench_tmp"; then
    echo "bench smoke test failed: no thread_curve in report" >&2
    exit 1
fi

# Baseline comparator gate: a report compared against itself passes; the
# same report with its throughput zeroed out must trip the regression
# detector and exit nonzero.
echo "==> bench baseline comparator (lrb bench --baseline)"
bench_slow_tmp="$(mktemp)"
trap 'rm -f "$bench_tmp" "$bench_slow_tmp"' EXIT
cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    bench --baseline "$bench_tmp" --compare "$bench_tmp" >/dev/null
# Committed-baseline gate: a fresh smoke report must stay within a
# generous threshold of the committed BENCH_4.json (same scenario, seed,
# and thread list; the threads=2 point is oversubscribed on small hosts
# and never gates). 0.5 absorbs host-to-host hardware differences, and
# best-of-three absorbs transient load spikes on shared runners — only a
# regression that persists across all three runs gates.
baseline_ok=""
for attempt in 1 2 3; do
    cargo run -q --release --offline -p lrb-cli --bin lrb -- \
        bench --smoke --threads 1,2 --out "$bench_tmp" >/dev/null
    if cargo run -q --release --offline -p lrb-cli --bin lrb -- \
        bench --baseline BENCH_4.json --compare "$bench_tmp" --threshold 0.5 \
        >/dev/null 2>&1; then
        baseline_ok=1
        break
    fi
    echo "    committed-baseline attempt $attempt regressed; retrying" >&2
done
if [ -z "$baseline_ok" ]; then
    echo "bench committed-baseline gate failed: regression vs BENCH_4.json persisted across 3 runs" >&2
    exit 1
fi
sed 's/"throughput_per_sec": [0-9][0-9.eE+-]*/"throughput_per_sec": 0.001/' \
    "$bench_tmp" > "$bench_slow_tmp"
if cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    bench --baseline "$bench_tmp" --compare "$bench_slow_tmp" >/dev/null 2>&1; then
    echo "bench comparator failed: injected regression was not detected" >&2
    exit 1
fi

# Trace smoke test: `lrb trace` must emit a schema-versioned Chrome
# trace-event timeline (Perfetto-loadable) with engine worker spans.
echo "==> trace smoke test (lrb trace --scenario smoke_ladder --threads 4)"
trace_tmp="$(mktemp)"
trap 'rm -f "$bench_tmp" "$bench_slow_tmp" "$trace_tmp"' EXIT
cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    trace --scenario smoke_ladder --threads 4 --seed 7 --out "$trace_tmp" >/dev/null
if ! grep -q '"schema_version": 1' "$trace_tmp"; then
    echo "trace smoke test failed: schema_version 1 missing" >&2
    exit 1
fi
if ! grep -q '"traceEvents"' "$trace_tmp"; then
    echo "trace smoke test failed: no traceEvents in export" >&2
    exit 1
fi
if ! grep -q 'engine.worker' "$trace_tmp"; then
    echo "trace smoke test failed: no engine.worker spans" >&2
    exit 1
fi

# Chaos smoke test: the fault-injection sweep must exit 0 and emit a
# schema-versioned JSON degradation report.
echo "==> chaos smoke test (lrb chaos --epochs 50 --crash-rate 0.1)"
chaos_out="$(cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    chaos --epochs 50 --crash-rate 0.1)"
if ! grep -q '"schema_version"' <<<"$chaos_out"; then
    echo "chaos smoke test failed: no schema_version in output" >&2
    exit 1
fi

# Online smoke test: a short streaming run must emit a schema-versioned
# ONLINE_1-style report with a per-epoch curve. 10 epochs on 4 servers
# finishes in well under a second.
echo "==> online smoke test (lrb online --servers 4 --epochs 10 --moves 3)"
online_tmp="$(mktemp)"
trap 'rm -f "$bench_tmp" "$bench_slow_tmp" "$trace_tmp" "$online_tmp"' EXIT
cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    online --servers 4 --epochs 10 --moves 3 --out "$online_tmp" >/dev/null
if ! grep -q '"schema_version": 1' "$online_tmp"; then
    echo "online smoke test failed: schema_version 1 missing" >&2
    exit 1
fi
if ! grep -q '"epoch_curve"' "$online_tmp"; then
    echo "online smoke test failed: no epoch_curve in report" >&2
    exit 1
fi

# Hetero smoke test (PR-8): the heterogeneous-machine evaluation must exit
# 0 and emit a schema-versioned HETERO_1-style report whose report
# self-validation passed (the CLI validates before printing), with the
# path-independence section present and zero solver budget violations.
echo "==> hetero smoke test (lrb hetero --smoke)"
hetero_tmp="$(mktemp)"
trap 'rm -f "$bench_tmp" "$bench_slow_tmp" "$trace_tmp" "$online_tmp" "$hetero_tmp"' EXIT
cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    hetero --smoke --out "$hetero_tmp" >/dev/null
if ! grep -q '"schema_version": 1' "$hetero_tmp"; then
    echo "hetero smoke test failed: schema_version 1 missing" >&2
    exit 1
fi
if ! grep -q '"path_independence"' "$hetero_tmp"; then
    echo "hetero smoke test failed: no path_independence section" >&2
    exit 1
fi
if grep -q '"budget_violations": [^0]' "$hetero_tmp"; then
    echo "hetero smoke test failed: solver exceeded its move budget" >&2
    exit 1
fi

# Compete smoke test (PR-9): the competitive lab must exit 0 (it fails
# loudly on any certificate overspend or a Maack 8/3 envelope break) and
# emit a schema-versioned COMPETE_1-style policy x adversary ratio grid.
echo "==> compete smoke test (lrb compete --smoke)"
compete_tmp="$(mktemp)"
trap 'rm -f "$bench_tmp" "$bench_slow_tmp" "$trace_tmp" "$online_tmp" "$hetero_tmp" "$compete_tmp"' EXIT
cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    compete --smoke --out "$compete_tmp" >/dev/null
if ! grep -q '"schema_version": 1' "$compete_tmp"; then
    echo "compete smoke test failed: schema_version 1 missing" >&2
    exit 1
fi
if ! grep -q '"grid"' "$compete_tmp"; then
    echo "compete smoke test failed: no policy x adversary grid" >&2
    exit 1
fi
if grep -q '"certificate_overspend": [^0]' "$compete_tmp"; then
    echo "compete smoke test failed: a policy overspent its certificate" >&2
    exit 1
fi

# Serve smoke gate (PR-7): the daemon must survive a SIGKILL mid-load and
# recover bit-identically. Start it, drive ~100 events through the retrying
# loadgen client, SIGKILL, restart, and assert replay equivalence — the
# drill exits nonzero on any lost acked event, resurrected departed key, or
# live-vs-recovered digest divergence. Two cycles: cycle 1 is killed,
# cycle 2 verifies the survivors, shuts down cleanly, and compares the live
# digests against an offline recovery of the same data directory.
echo "==> serve smoke gate (lrb loadgen --drill, SIGKILL + replay equivalence)"
serve_tmp="$(mktemp -d)"
trap 'rm -f "$bench_tmp" "$bench_slow_tmp" "$trace_tmp" "$online_tmp" "$hetero_tmp" "$compete_tmp"; rm -rf "$serve_tmp"' EXIT
drill_out="$(cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    loadgen --drill --data "$serve_tmp" --cycles 2 --tenants 5 --events 20 \
    --workers 2 --snapshot-every 16 --kill-lo 40 --kill-hi 150 --seed 11)"
echo "    $drill_out"
if ! grep -q 'replay_identical=true' <<<"$drill_out"; then
    echo "serve smoke gate failed: restart replay diverged from live state" >&2
    exit 1
fi
if ! grep -q 'lost=0 ghosts=0' <<<"$drill_out"; then
    echo "serve smoke gate failed: acked events lost or resurrected" >&2
    exit 1
fi
# The snapshot left on disk must carry the pinned serve schema, and offline
# digest recovery must be deterministic.
if ! grep -q '"schema_version": 1' "$serve_tmp/snapshot.json"; then
    echo "serve smoke gate failed: snapshot missing schema_version 1" >&2
    exit 1
fi
digest_a="$(cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    serve --data "$serve_tmp" --digest)"
digest_b="$(cargo run -q --release --offline -p lrb-cli --bin lrb -- \
    serve --data "$serve_tmp" --digest)"
if [ "$digest_a" != "$digest_b" ] || ! grep -q '"digests"' <<<"$digest_a"; then
    echo "serve smoke gate failed: offline digest recovery is not deterministic" >&2
    exit 1
fi

# Static invariant gate (PR-5, semantic passes PR-10): lrb-lint must find
# zero violations of the workspace rules — the lexical layer
# (no-nondeterminism, no-panic-core, checked-arith, obs-name-registry,
# unsafe-audit, schema-key-pinning) plus the call-graph passes
# (panic-reachability, nondeterminism taint, checked-arith dataflow,
# stale-suppression) — and its LINT_1.json report must carry the pinned
# schema over a non-vacuous call graph.
lint_tmp="$(mktemp -d)"
trap 'rm -f "$bench_tmp" "$bench_slow_tmp" "$trace_tmp" "$online_tmp" "$hetero_tmp" "$compete_tmp"; rm -rf "$serve_tmp" "$lint_tmp"' EXIT
run cargo run -q --release --offline -p lrb-lint --bin lrb-lint -- \
    --root . --report "$lint_tmp/LINT_1.json"
if ! grep -q '"schema_version": 1' "$lint_tmp/LINT_1.json"; then
    echo "lint report gate failed: missing schema_version 1" >&2
    exit 1
fi
if ! grep -q '"findings": \[\],' "$lint_tmp/LINT_1.json"; then
    echo "lint report gate failed: findings are not empty" >&2
    exit 1
fi
if grep -q '"edges": 0' "$lint_tmp/LINT_1.json"; then
    echo "lint report gate failed: empty call graph (vacuous analysis)" >&2
    exit 1
fi

# Concurrency-schedule gate (PR-5): the work-stealing engine must produce
# bit-identical results under seeded pathological schedules (steal storms,
# single-slot stripes, adversarial yields) across 8 seeds.
run cargo run -q --release --offline -p lrb-lint --bin lrb-lint -- \
    --schedules --seeds 0..8 --threads 2,4

# Zero-cost instrumentation gate: the NoopRecorder-monomorphized hot loop
# (counters, histograms, spans and instants) must stay within 2% of the
# uninstrumented loop (the bench asserts and aborts otherwise).
run cargo bench -q -p lrb-bench --bench obs_overhead --offline

# Serve drill under CPU contention: the daemon's SIGKILL/overload drills
# and their clean-shutdown acks must hold while two busy loops compete for
# the cores (a shutdown ack lost to a slow connection thread shows up here).
with_cpu_hogs() {
    yes >/dev/null &
    local hog1=$!
    yes >/dev/null &
    local hog2=$!
    local status=0
    "$@" || status=$?
    kill "$hog1" "$hog2" 2>/dev/null || true
    wait "$hog1" "$hog2" 2>/dev/null || true
    return "$status"
}
run with_cpu_hogs cargo test -q --offline -p lrb-cli --test serve_drill

run cargo fmt --all --check

run cargo clippy --workspace --all-targets --offline -- -D warnings

echo "all checks passed"

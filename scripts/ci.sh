#!/usr/bin/env bash
# CI gate for the Model Lakes workspace.
#
#   scripts/ci.sh          # tier-1 + full workspace tests + determinism + clippy
#   scripts/ci.sh --quick  # tier-1 + lakebench build + two smoke runs + lint only
#
# Tier-1 (ROADMAP.md) is `cargo build --release && cargo test -q`; everything
# after it widens coverage: the lakebench build, a 4-second
# `lineage-tasks` smoke run (three ingest → graph catch-up → reads cycles,
# so an attach lands on a recovery memo that already took one; the
# benchmark's output checks on citation, lineage path and generated card
# run after each, `failed` 0) and a 3-second
# `store-write-restart` smoke run (its restart check compares probe searches
# bit for bit across a reopen: a caught-up HNSW graph must equal a rebuilt
# one; `check.lost_acked_writes` 0) — both also in --quick mode, the
# mlake-lint static-analysis gate (also run in
# --quick mode — it is cheap and catches new debt earliest; the per-file
# passes plus the whole-program lock-cycle / transitive-panic /
# blocking-under-lock passes, writing the machine-readable report to
# target/lint/ and proving on a seeded fixture that an inverted lock
# acquisition fails the run), the full
# workspace test suite, a debug-profile par run (exercising the
# lock-order race detector, which compiles out in release), the same suite
# re-run with observability disabled (MLAKE_OBS=off must be behaviorally
# inert), the parallel-vs-serial equivalence suites re-run under
# MLAKE_THREADS=1 (exercising the env override path end-to-end, including
# sharded scatter-gather determinism; the `hnsw` filter carries the golden
# graph fixture and the incremental-selection oracle proptest, which run
# again at default threads under MLAKE_OBS=off — the visit counters are
# flushed from the one shared beam; the versioning suite carries the
# recovery golden fixture and the extended-memo == from-scratch proptest,
# and the core graph_catch_up test — caught-up graph == scratch recovery
# after every ingest — runs again under MLAKE_OBS=off, where it cannot
# count faults but must publish the same bits), the SQ8 recall gate in both
# observability modes, the WAL crash-recovery matrix
# (kill-at-every-write/fsync sweep, again in both observability modes), a
# the serving stage (the end-to-end HTTP hammer — concurrent mixed load,
# deliberate backpressure, graceful shutdown + reopen — in both
# observability modes; the sweep now also kills at every remove_file of a
# GC pass), the blockstore suite (lazy residency, orphan-blob GC, manifest
# v1/v2 back-compat — in both observability modes), a performance guard
# covering the tiled matmul,
# the quantized flat scan, the sharded scatter-gather merge, WAL append
# throughput, the lazy open's absolute budget, the
# size-independent delta-persist check and the text/hybrid retrieval gate
# (BM25 batch budget + the hybrid-recall fusion bar; serving is checked by
# the hammer and measured by lakebench, not gated here) — run in both
# observability modes, budgets overridable via MLAKE_BENCH_GUARD_MS /
# MLAKE_BENCH_GUARD_SQ8_MS / MLAKE_BENCH_GUARD_SQ8_RATIO /
# MLAKE_BENCH_GUARD_SHARD_OPS / MLAKE_BENCH_GUARD_WAL_OPS /
# MLAKE_BENCH_GUARD_OPEN_MS /
# MLAKE_BENCH_GUARD_TEXT_MS — and clippy
# with warnings denied across the crates the parallel, observability and
# serving layers touch. The text stage runs the mlake-text unit suite and
# the core text_search integration suite (persist/replay determinism,
# citation-contract regression) in both observability modes.

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n==> %s\n' "$*"; }

step "tier-1: cargo build --release"
cargo build --release

step "tier-1: cargo test -q"
cargo test -q

# lakebench is a package of its own, outside the workspace: only this build
# notices a facade or Vfs API removal that breaks it. Same target dir as
# benchmark/run.sh; compile only, no run.
step "benchmark: lakebench builds against the workspace crates"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
  cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Four seconds' worth of cycles (three) of the lineage workload, so the
# second and third ingest are attached to a recovery memo that has already
# been extended once: its output checks — cite / lineage_path end at the
# queried model, generate_card names it, no failed op — run against the task
# read path after each; any miss exits non-zero.
step "benchmark: lineage-tasks smoke run (output checks, failed = 0)"
"${CARGO_TARGET_DIR:-target}/release/lakebench" --workload lineage-tasks --seconds 4 --trace 0

# 1500 ops of the write workload — three seconds' worth, the shortest run
# that reaches a restart (op 1380): after the reopen the probe searches must
# return the bits they returned before it, i.e. the index rebuilt from the
# registry equals the one caught up insert by insert.
step "benchmark: store-write-restart smoke run (restart check, failed = 0)"
"${CARGO_TARGET_DIR:-target}/release/lakebench" --workload store-write-restart --seconds 3 --trace 0

step "lint: mlake-lint over crates/ and src/ (lint.allow baseline; json artifact)"
mkdir -p target/lint
cargo run -q -p mlake-lint --release -- --json target/lint/report.json crates src

step "lint: seeded lock-order inversion must fail the lock-cycle pass"
fixture="$(mktemp -d)"
trap 'rm -rf "$fixture"' EXIT
mkdir -p "$fixture/crates/fix/src"
cat > "$fixture/crates/fix/Cargo.toml" <<'EOF'
[package]
name = "mlake-fix"
EOF
cat > "$fixture/crates/fix/src/lib.rs" <<'EOF'
use std::sync::Mutex;

pub struct Pair {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Pair {
    pub fn inverted(&self) -> u32 {
        // lock-order: 20 (fix.b)
        let b = self.b.lock().unwrap_or_else(|e| e.into_inner());
        // lock-order: 10 (fix.a)
        let a = self.a.lock().unwrap_or_else(|e| e.into_inner());
        *a + *b
    }
}
EOF
lint_bin="$(pwd)/target/release/mlake-lint"
if out="$(cd "$fixture" && "$lint_bin" --no-baseline crates 2>&1)"; then
  echo "fixture with inverted lock order unexpectedly passed mlake-lint:"
  echo "$out"
  exit 1
fi
echo "$out" | grep -q 'lock-cycle' || {
  echo "expected a lock-cycle finding on the seeded inversion, got:"
  echo "$out"
  exit 1
}
echo "seeded inversion correctly rejected"

if [[ "${1:-}" == "--quick" ]]; then
  echo "quick mode: skipping workspace tests, determinism re-run, clippy"
  exit 0
fi

step "workspace tests"
cargo test --workspace -q

step "lock-order race detector: debug-profile par tests"
cargo test -q -p mlake-par

step "observability off: tier-1 re-run under MLAKE_OBS=off"
MLAKE_OBS=off cargo test -q
MLAKE_OBS=off cargo run -q -p mlake-lint --release -- --json target/lint/report-obs-off.json crates src

step "determinism: equivalence suites under MLAKE_THREADS=1"
MLAKE_THREADS=1 cargo test -q -p mlake-tensor --test parallel_equivalence
MLAKE_THREADS=1 cargo test -q -p mlake-index hnsw
MLAKE_OBS=off cargo test -q -p mlake-index hnsw
MLAKE_THREADS=1 cargo test -q -p mlake-index --test sharded_determinism
MLAKE_THREADS=1 cargo test -q -p mlake-par
MLAKE_THREADS=1 cargo test -q -p mlake-versioning
MLAKE_OBS=off cargo test -q -p mlake-core --test graph_catch_up

step "quantized recall gate: sq8 rescore within 5% of f32 (obs on + off)"
cargo test -q -p mlake-index --test quantized --release
MLAKE_OBS=off cargo test -q -p mlake-index --test quantized --release

step "crash recovery: kill-at-every-write/fsync/remove sweep (obs on + off)"
cargo test -q -p mlake-core --test crash_recovery --release
MLAKE_OBS=off cargo test -q -p mlake-core --test crash_recovery --release

step "blockstore: lazy residency + refcounting GC (obs on + off)"
cargo test -q -p mlake-core --test residency --test manifest_compat --release
MLAKE_OBS=off cargo test -q -p mlake-core --test residency --test manifest_compat --release

step "serve: end-to-end HTTP hammer over TCP (obs on + off)"
cargo test -q -p mlake-server --test hammer --release
MLAKE_OBS=off cargo test -q -p mlake-server --test hammer --release

step "text: BM25 / hybrid retrieval suites (obs on + off)"
cargo test -q -p mlake-text --release
MLAKE_OBS=off cargo test -q -p mlake-text --release
cargo test -q -p mlake-core --test text_search --release
MLAKE_OBS=off cargo test -q -p mlake-core --test text_search --release

step "bench guard: matmul + sq8 + sharded + wal + blockstore open/persist + text (obs on + off)"
cargo run -q -p mlake-bench --bin bench_guard --release
MLAKE_OBS=off cargo run -q -p mlake-bench --bin bench_guard --release

step "clippy -D warnings (parallel + observability + serving crates)"
cargo clippy -q -p mlake-par -p mlake-tensor -p mlake-index \
  -p mlake-fingerprint -p mlake-datagen -p mlake-bench \
  -p mlake-obs -p mlake-core -p mlake-query -p mlake-lint \
  -p mlake-wal -p mlake-proto -p mlake-server -p mlake-load \
  -p mlake-text -- -D warnings

echo
echo "ci: all green"

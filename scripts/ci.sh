#!/usr/bin/env bash
# CI gate for the Model Lakes workspace.
#
#   scripts/ci.sh          # every stage below
#   scripts/ci.sh --quick  # stages 1-5
#
# One sentence per stage, in run order:
# 1. Tier-1 (ROADMAP.md) is `cargo build --release && cargo test -q`, whose
#    test run covers every crate (`default-members`) in the debug profile,
#    where the lock-order race detector is compiled in.
# 2. lakebench, a package outside the workspace, must build against it.
# 3. A 4-second `lineage-tasks` smoke run checks cite / lineage / card output
#    across three ingest → graph catch-up cycles.
# 4. A 3-second `store-write-restart` smoke run checks that probe searches
#    return the same bits across a reopen and that no acked write is lost.
# 5. mlake-lint must report nothing outside lint.allow, must find exactly
#    the seven lock ranks of DESIGN.md §10, and must reject a seeded
#    lock-order inversion.
# 6. Tier-1 and the lint re-run under MLAKE_OBS=off, which must be
#    behaviourally inert.
# 7. The equivalence, HNSW, sharding, par and versioning suites re-run under
#    MLAKE_THREADS=1, whose output must be bit-identical.
# 8. The SQ8 recall gate, the crash-recovery matrix with the auto-compaction
#    suite, the blockstore suites, the snapshot-read race, the HTTP hammer
#    and the text suites re-run in the release profile with observability on
#    and off.
# 9. Clippy denies warnings across the parallel, observability, storage and
#    serving crates.
# --quick stops after stage 5.

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

# A new lock rank (or a dropped one) must show up as a diff to this line.
step "lint: the lock hierarchy is exactly ranks 4 7 8 10 20 45 50"
want_ranks="4 7 8 10 20 45 50"
got_ranks="$(cargo run -q -p mlake-lint --release -- --locks crates src \
  | awk 'NR > 1 { print $1 }' | paste -sd' ')"
if [[ "$got_ranks" != "$want_ranks" ]]; then
  echo "mlake-lint --locks found ranks '$got_ranks', expected '$want_ranks'"
  exit 1
fi

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
  echo "quick mode: skipping the obs-off, determinism and release re-runs and clippy"
  exit 0
fi

step "observability off: tier-1 re-run under MLAKE_OBS=off"
MLAKE_OBS=off cargo test -q
MLAKE_OBS=off cargo run -q -p mlake-lint --release -- --json target/lint/report-obs-off.json crates src

step "determinism: equivalence suites under MLAKE_THREADS=1"
MLAKE_THREADS=1 cargo test -q -p mlake-tensor --test parallel_equivalence
MLAKE_THREADS=1 cargo test -q -p mlake-index hnsw
MLAKE_THREADS=1 cargo test -q -p mlake-index --test sharded_determinism
MLAKE_THREADS=1 cargo test -q -p mlake-par
MLAKE_THREADS=1 cargo test -q -p mlake-versioning

step "quantized recall gate: sq8 rescore within 5% of f32 (obs on + off)"
cargo test -q -p mlake-index --test quantized --release
MLAKE_OBS=off cargo test -q -p mlake-index --test quantized --release

step "crash recovery: kill-at-every-write/fsync/remove sweeps + auto compaction (obs on + off)"
cargo test -q -p mlake-core --test crash_recovery --test auto_compaction --release
MLAKE_OBS=off cargo test -q -p mlake-core --test crash_recovery --test auto_compaction --release

step "blockstore: lazy residency + refcounting GC (obs on + off)"
cargo test -q -p mlake-core --test residency --test manifest_compat --release
MLAKE_OBS=off cargo test -q -p mlake-core --test residency --test manifest_compat --release

step "snapshot reads: concurrent readers see whole ops (obs on + off)"
cargo test -q -p mlake-core --test snapshot_reads --release
MLAKE_OBS=off cargo test -q -p mlake-core --test snapshot_reads --release

step "serve: end-to-end HTTP hammer over TCP (obs on + off)"
cargo test -q -p mlake-server --test hammer --release
MLAKE_OBS=off cargo test -q -p mlake-server --test hammer --release

step "text: BM25 / hybrid retrieval suites (obs on + off)"
cargo test -q -p mlake-text --release
MLAKE_OBS=off cargo test -q -p mlake-text --release
cargo test -q -p mlake-core --test text_search --release
MLAKE_OBS=off cargo test -q -p mlake-core --test text_search --release

step "clippy -D warnings (parallel + observability + serving crates)"
cargo clippy -q -p mlake-par -p mlake-tensor -p mlake-index \
  -p mlake-fingerprint -p mlake-datagen -p mlake-bench \
  -p mlake-obs -p mlake-core -p mlake-query -p mlake-lint \
  -p mlake-wal -p mlake-proto -p mlake-server -p mlake-load \
  -p mlake-text -- -D warnings

echo
echo "ci: all green"

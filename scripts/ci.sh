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
# 5. One mlake-lint run must report no finding and print exactly the six
#    lock ranks of DESIGN.md §10, and the linter must reject a seeded
#    lock-order inversion; the index, query and lint crates must be
#    rustfmt-clean.
# 6. Tier-1 re-runs under MLAKE_OBS=off, which must be behaviourally
#    inert.
# 7. The equivalence, HNSW, par and versioning suites (of the index
#    crate's integration suites, the property tests: search_scratch sets
#    its own thread count), the lake's
#    search bit-identity test (a kind's graph built on its first read, at
#    any point, equals one caught up insert by insert), and the experiments'
#    quick-run golden (every id's tables minus their timing cells), re-run
#    under MLAKE_THREADS=1, whose output must be bit-identical.
# 8. The experiments' full-size golden (every id's full-run tables minus
#    their timing cells) runs in release with observability on. The
#    index suites (the HNSW graph-and-answers golden among them, since
#    lakebench runs release code), the crash-recovery matrix (a crash in
#    a persist that seals the WAL segment or folds the catalogue), the
#    lineage-read suites (one catch-up per stale
#    projection, a graph equal to a from-scratch recovery, and no read
#    writes), the
#    blockstore and on-disk format suites
#    (upgrade goldens, hostile bytes, a block
#    nested past the parser's bound, a persist that seals one WAL segment
#    the size of its ops and writes no segment), the codec kernels (the vendored serde
#    and serde_json crates' own tests, among them Ryū float digits against
#    `Display` and the one-scan number parser against the one it replaced,
#    and CRC32C's SSE4.2 path against its table), the snapshot-read race,
#    the ingest suites (SHA-256 hardware path against the portable one,
#    weight moments and stored fingerprints bit-identical to the
#    per-statistic and from-scratch ones, no blob left resident by a failed
#    ingest), the serving suites (server unit tests, HTTP hammer, connection
#    isolation, request framing, the client against a scripted server, wire
#    round trips, the JSON byte goldens and a hostile nested request
#    answered 400) and the text suites re-run in
#    the release profile with observability on and off.
# 9. Clippy denies warnings across the parallel, observability, storage and
#    serving crates, their tests and examples included (--all-targets).
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
# benchmark/run.sh; compile only, no run. --locked: its frozen Cargo.lock
# pins the [dependencies] of every crate it links, so a change that prunes
# or adds an edge fails here instead of silently rewriting the lock.
step "benchmark: lakebench builds against the workspace crates"
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
  cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml

# Four seconds' worth of cycles (three) of the lineage workload, so the
# second and third ingest are attached to a recovery memo that has already
# been extended once: its output checks — cite / lineage_path end at the
# queried model, generate_card names it, no failed op — run against the task
# read path after each; any miss exits non-zero.
step "benchmark: lineage-tasks smoke run (output checks, failed = 0)"
"${CARGO_TARGET_DIR:-target}/release/lakebench" --workload lineage-tasks --seconds 4 --trace 0

# 1500 ops of the write workload — three seconds' worth, the shortest run
# that reaches a restart (op 1380): after the reopen the probe searches must
# return the bits they returned before it, i.e. each kind's graph, rebuilt
# from the registry on that kind's first read after the reopen, equals the
# one caught up insert by insert.
step "benchmark: store-write-restart smoke run (restart check, failed = 0)"
"${CARGO_TARGET_DIR:-target}/release/lakebench" --workload store-write-restart --seconds 3 --trace 0

# Any finding fails the run. The same run prints the lock-rank table
# between its header and the summary line; a new lock rank (or a dropped
# one) must show up as a diff to want_ranks.
step "lint: mlake-lint over crates/ and src/ finds nothing; the lock hierarchy is exactly ranks 4 8 10 20 45 50"
lint_out="$(cargo run -q -p mlake-lint --release -- crates src)" || {
  echo "$lint_out"
  exit 1
}
echo "$lint_out"
want_ranks="4 8 10 20 45 50"
got_ranks="$(echo "$lint_out" \
  | awk '/^rank  name/ { table = 1; next } /^mlake-lint:/ { table = 0 } table { print $1 }' \
  | paste -sd' ')"
if [[ "$got_ranks" != "$want_ranks" ]]; then
  echo "mlake-lint's rank table lists ranks '$got_ranks', expected '$want_ranks'"
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
if out="$(cd "$fixture" && "$lint_bin" crates 2>&1)"; then
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

step "fmt: mlake-index, mlake-query and mlake-lint are rustfmt-clean"
cargo fmt --check -p mlake-index -p mlake-query -p mlake-lint

if [[ "${1:-}" == "--quick" ]]; then
  echo "quick mode: skipping the obs-off, determinism and release re-runs and clippy"
  exit 0
fi

step "observability off: tier-1 re-run under MLAKE_OBS=off"
MLAKE_OBS=off cargo test -q

step "determinism: equivalence suites under MLAKE_THREADS=1"
MLAKE_THREADS=1 cargo test -q -p mlake-tensor --test parallel_equivalence
MLAKE_THREADS=1 cargo test -q -p mlake-index hnsw
MLAKE_THREADS=1 cargo test -q -p mlake-index --test proptests
MLAKE_THREADS=1 cargo test -q -p mlake-core --test lake_api \
  search_is_bit_identical_however_a_vector_reached_the_registry
MLAKE_THREADS=1 cargo test -q -p mlake-par
MLAKE_THREADS=1 cargo test -q -p mlake-versioning
MLAKE_THREADS=1 cargo test -q -p mlake-bench

step "experiments: full-size golden (release, obs on)"
cargo test -q -p mlake-bench --lib --release -- --ignored full_run

step "index: HNSW golden, selection and determinism suites in release (obs on + off)"
cargo test -q -p mlake-index --release
MLAKE_OBS=off cargo test -q -p mlake-index --release

step "crash recovery: kill-at-every-write/fsync/remove sweeps, a persist that seals or folds (obs on + off)"
cargo test -q -p mlake-core --test crash_recovery --release
MLAKE_OBS=off cargo test -q -p mlake-core --test crash_recovery --release

# A stale projection (the version graph, an HNSW graph, the text index) is
# caught up once per herd of readers; a caught-up graph equals a
# from-scratch recovery and is published without a WAL write, fsync or
# event; a rooted graph's citations survive a reopen.
step "lineage reads: graph catch-up, herd, reads-never-write (obs on + off)"
cargo test -q -p mlake-core --test graph_catch_up --test rebuild_herd \
  --test reads_never_write --release
MLAKE_OBS=off cargo test -q -p mlake-core --test graph_catch_up --test rebuild_herd \
  --test reads_never_write --release

step "blockstore: lazy residency, refcounting GC, upgrade goldens, hostile bytes, sealing persist (obs on + off)"
cargo test -q -p mlake-core --test residency --test manifest_compat \
  --test wal_records --test hostile_open --test delta_segment --release
MLAKE_OBS=off cargo test -q -p mlake-core --test residency --test manifest_compat \
  --test wal_records --test hostile_open --test delta_segment --release

step "codec kernels: float digits, number parsing, nesting bound, CRC32C paths (obs on + off)"
cargo test -q --manifest-path vendor/serde/Cargo.toml --release
MLAKE_OBS=off cargo test -q --manifest-path vendor/serde/Cargo.toml --release
cargo test -q --manifest-path vendor/serde_json/Cargo.toml --release
MLAKE_OBS=off cargo test -q --manifest-path vendor/serde_json/Cargo.toml --release
cargo test -q -p mlake-wal --lib record --release
MLAKE_OBS=off cargo test -q -p mlake-wal --lib record --release

step "snapshot reads: concurrent readers see whole ops (obs on + off)"
cargo test -q -p mlake-core --test snapshot_reads --release
MLAKE_OBS=off cargo test -q -p mlake-core --test snapshot_reads --release

step "ingest: SHA-256 paths agree, fingerprint bits unchanged, no leak on failure (obs on + off)"
cargo test -q -p mlake-core --lib hash --release
MLAKE_OBS=off cargo test -q -p mlake-core --lib hash --release
cargo test -q -p mlake-tensor --lib stats --release
MLAKE_OBS=off cargo test -q -p mlake-tensor --lib stats --release
cargo test -q -p mlake-core --test lake_api --release
MLAKE_OBS=off cargo test -q -p mlake-core --test lake_api --release

step "serve: HTTP hammer, connections, framing, the client and the wire's bytes (obs on + off)"
cargo test -q -p mlake-server --lib --test hammer --test connections --test framing \
  --test nesting --release
MLAKE_OBS=off cargo test -q -p mlake-server --lib --test hammer --test connections \
  --test framing --test nesting --release
cargo test -q -p mlake-load --release
MLAKE_OBS=off cargo test -q -p mlake-load --release
cargo test -q -p mlake-proto --test wire_roundtrip --test json_identity --test nesting --release
MLAKE_OBS=off cargo test -q -p mlake-proto --test wire_roundtrip --test json_identity \
  --test nesting --release

step "text: BM25 / hybrid retrieval suites (obs on + off)"
cargo test -q -p mlake-text --release
MLAKE_OBS=off cargo test -q -p mlake-text --release
cargo test -q -p mlake-core --test text_search --release
MLAKE_OBS=off cargo test -q -p mlake-core --test text_search --release

step "clippy -D warnings (parallel + observability + serving crates, all targets)"
cargo clippy -q --all-targets -p mlake-par -p mlake-tensor -p mlake-index \
  -p mlake-fingerprint -p mlake-datagen -p mlake-bench \
  -p mlake-obs -p mlake-core -p mlake-query -p mlake-lint \
  -p mlake-wal -p mlake-proto -p mlake-server -p mlake-load \
  -p mlake-text -- -D warnings

echo
echo "ci: all green"

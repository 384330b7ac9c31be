#!/usr/bin/env bash
# Builds lakebench (offline, release) and runs it from the repository root.
#
#   benchmark/run.sh                       the four workloads, untraced → <target>/lakebench/result.json
#   benchmark/run.sh --trace 1             … plus a traced run of each (per-layer table, trace-<workload>.json)
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]     one workload
#   benchmark/run.sh --check               two suites on one seed must agree within the bounds
#
# <target> is $CARGO_TARGET_DIR, or target/ at the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/lakebench" "$@"

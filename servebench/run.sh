#!/usr/bin/env bash
# Builds the release server and the benchmark from source, then runs
# the benchmark from the repository root:
#
#   bash servebench/run.sh --workload compute-mix --seed 1 --seconds 15 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hpcfail-serve --bin hpcfail-serve >&2
cargo build --release --offline --quiet --manifest-path servebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hpcfail-servebench" \
  --server "$CARGO_TARGET_DIR/release/hpcfail-serve" "$@"

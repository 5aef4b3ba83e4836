#!/usr/bin/env bash
# Builds the release `transyt` binary and the benchmark from source, then runs
# the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload zones-pipeline --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last line
# of stdout is the benchmark's JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"

cargo build --release --offline --quiet -p transyt-cli --bin transyt >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2

exec "$CARGO_TARGET_DIR/release/perfbench" "$@"

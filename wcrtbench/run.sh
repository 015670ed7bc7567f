#!/usr/bin/env bash
# Builds the benchmark and the `trisc` daemon it serves from this checkout,
# then runs the benchmark with the given arguments, e.g.
#   bash wcrtbench/run.sh --workload cold_paper --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path wcrtbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/wcrtbench" "$@"

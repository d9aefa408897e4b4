#!/usr/bin/env bash
# Builds the program under test (`approxql`) and the benchmark driver from
# source, then runs the driver with the given arguments. This is the
# `command` of BENCHMARK.json; run it from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p approxql-cli
cargo build --release --offline --quiet --manifest-path axbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/axbench" "$@"

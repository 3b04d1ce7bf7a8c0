#!/usr/bin/env bash
# Build the benchmark and the choreo-serve binary it drives, then run it.
# Arguments go to the benchmark unchanged; with none it runs all four
# workloads, both halves. See benchmark/README.md.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml \
    -p choreo-benchmark -p choreo-service --bin choreo-benchmark --bin choreo-serve 1>&2
exec "$CARGO_TARGET_DIR/release/choreo-benchmark" "$@"

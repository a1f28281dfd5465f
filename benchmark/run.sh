#!/usr/bin/env bash
# Builds the benchmark package (the harness and both sample binaries) and
# runs the harness with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload sim_mem_mapg --seed 42 --seconds 20 --trace 0
#   bash benchmark/run.sh record --out record.json
#   bash benchmark/run.sh compare benchmark/baseline/set1.json record.json
#
# Honours CARGO_TARGET_DIR; otherwise builds into benchmark/target.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins
exec "${CARGO_TARGET_DIR:-$here/target}/release/mapg-benchmark" "$@"

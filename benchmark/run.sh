#!/usr/bin/env bash
# Build the benchmark offline and run every workload, each in a child
# process of its own; prints the table and writes out/result.json.
#
#   benchmark/run.sh                      # all four workloads, seed 42
#   benchmark/run.sh --workload store_bulk --seed 7
#   benchmark/run.sh --trace              # the traced (per-layer) run
#   benchmark/run.sh --quick              # sizes / 10: a smoke run, not for claims
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- run "$@"

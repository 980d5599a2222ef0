#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   benchmark/run.sh [--seed S] [--seconds N] [--smoke] [--out FILE]
#       every workload, each in a process of its own, tracing off and
#       then on; writes benchmark/out/result-seed<S>.json
#   benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
#       one workload; the last line of stdout is the result object
#       (the command BENCHMARK.json names)
#   benchmark/run.sh --compare BASE.json NEW.json
#       compares two result files; exits 1 if any metric is worse
set -euo pipefail

# Run from the repository root, whatever the caller's directory, so
# that a relative CARGO_TARGET_DIR means the same to cargo and to us.
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Build output goes to stderr: stdout carries only the result.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/darco-benchmark" "$@"

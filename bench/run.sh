#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   bench/run.sh [--seed N] [--workload W] [--quick]
#       the whole suite: both passes of every workload, every metric by
#       name with unit and sample count, output checked job by job
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one pass, as BENCHMARK.json's command runs it; the last line of
#       standard output is the result object
#
# Exits non-zero if the build fails, a job fails, or a metric is missing.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-bench/target}"
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml --target-dir "$target" >&2

# Provenance stamped into every summary and trace; a checkout without
# git history says so, and so does one with uncommitted changes.
MRS_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then MRS_BENCH_COMMIT+="+dirty"; fi
MRS_BENCH_RUSTC="$(rustc --version | tr ' ' '_')"
export MRS_BENCH_COMMIT MRS_BENCH_RUSTC

exec "$target/release/mrs-e2e" "$@"

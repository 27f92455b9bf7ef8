#!/usr/bin/env bash
# Smoke test for CI: tiny inputs, 5 jobs per arm, 20 microbench calls —
# all four workloads and both passes in under 30 s, reaching every
# metric path. The numbers mean nothing; the exit code does.
set -euo pipefail
exec "$(dirname "$0")/run.sh" --quick "$@"

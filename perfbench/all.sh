#!/usr/bin/env bash
# Run every workload in turn from the root of a checkout; exits non-zero if
# any of them fails its correctness gate.
#   usage: bash perfbench/all.sh [SEED] [SECONDS] [TRACE]
set -u
seed=${1:-1}
seconds=${2:-30}
trace=${3:-0}
status=0
for workload in anneal refine probe; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace" || status=1
done
exit $status

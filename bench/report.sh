#!/bin/sh
# Every metric of every workload, with units, sample counts and failed_frac:
#   sh bench/report.sh [SEED] [SECONDS] [TRACE]
bench=$(dirname "$0")
for workload in algebra_cli warped_cli lie_scale pushdown_lib; do
    python3 "$bench/run.py" --workload "$workload" --seed "${1:-1}" \
        --seconds "${2:-15}" --trace "${3:-0}" || exit 1
done

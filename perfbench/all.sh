#!/usr/bin/env bash
# Runs every workload once, printing each run's metrics by name and unit,
# and exits non-zero if any run fails a correctness gate or errors. Run
# from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds] [trace]
set -uo pipefail
seed=${1:-1} seconds=${2:-20} trace=${3:-0}
status=0
for w in channel-w sod-adapt node-mix cluster-mix; do
	echo "== $w"
	bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
done
exit $status

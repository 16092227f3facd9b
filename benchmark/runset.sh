#!/usr/bin/env bash
# One run set for `run.sh compare`: every workload's untraced pass once per
# seed, appended to OUT.jsonl; with TRACE=1 also one traced pass per workload
# on the first seed. SECONDS_PER_RUN defaults to BENCHMARK.json's run_seconds.
#
#   bash benchmark/runset.sh OUT.jsonl [SEED...]     (default seeds 1..10)
set -euo pipefail
out="${1:?usage: runset.sh OUT.jsonl [SEED...]}"
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
run="$(dirname "${BASH_SOURCE[0]}")/run.sh"
seconds="${SECONDS_PER_RUN:-20}"
for workload in list-compute list-wire serve-short serve-update; do
	for seed in "${seeds[@]}"; do
		bash "$run" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 --json "$out" | tail -n 1
	done
	if [ "${TRACE:-0}" = 1 ]; then
		bash "$run" --workload "$workload" --seed "${seeds[0]}" --seconds "$seconds" --trace 1 --json "$out" | tail -n 1
	fi
done

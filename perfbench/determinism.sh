#!/usr/bin/env bash
# Runs one workload twice with one seed, traced so that race outcomes are
# recorded, and checks that both runs report the same T and Clifford
# counts, cache hits and misses, and race outcomes.
#
#   bash perfbench/determinism.sh compile-u3 1 [seconds]
#
# Run it from the repository root.
set -euo pipefail

workload=${1:?usage: determinism.sh <workload> <seed> [seconds]}
seed=${2:?usage: determinism.sh <workload> <seed> [seconds]}
seconds=${3:-25}

fingerprint() {
	bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 |
		tail -n 2 | head -n 1 |
		grep -o -e '"fingerprint":"[^"]*"' -e '"race_wins_cumulative":\[[^]]*\]'
}

a=$(fingerprint)
b=$(fingerprint)
echo "$a"
if [[ "$a" != "$b" ]]; then
	echo "determinism: runs differ:" >&2
	echo "$b" >&2
	exit 1
fi
echo "determinism: $workload seed $seed: two runs agree"

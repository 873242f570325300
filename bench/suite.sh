#!/usr/bin/env bash
# Runs the whole benchmark into a result directory: every workload in a
# fresh process (so peak_rss_mb is per workload), untraced first, then
# traced, once per seed.
#   bash bench/suite.sh <out-dir> [seed ...]        (default seeds: 1 2 3 4 5)
# Two such directories compare with
#   .bench_build/schism-bench -compare <dir A> <dir B>
set -euo pipefail
out=${1:?usage: bench/suite.sh <out-dir> [seed ...]}
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5)
here=$(dirname "$0")
export BENCH_COMMIT=${BENCH_COMMIT:-$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)}
for seed in "${seeds[@]}"; do
	for workload in plan-tpcc txn-tpcc txn-ycsb-r3 live-tpcc; do
		for trace in 0 1; do
			bash "$here/run.sh" --workload "$workload" --seed "$seed" --trace "$trace" --out "$out" | grep -v '^{'
		done
	done
done

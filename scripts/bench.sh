#!/usr/bin/env bash
# Runs the performance-tracked benchmarks — graph construction
# (graph.Build, which writes the clique CSR row by row with no edge list
# in between, and metis.NewGraph, the edge-list assembly left to the
# coarsest-hypergraph expansion; BenchmarkHGraphBuild is the
# hypergraph-native build whose ns_per_op and bytes_per_op against
# BenchmarkGraphBuild/clique are the PR-9 acceptance numbers), the
# multilevel partitioner (BenchmarkPartKway on the TPCC-50W-scale graph,
# BenchmarkPartKwaySolver steady-state, BenchmarkPartHKway on the same
# trace's hypergraph — both record the shared %distributed quality
# metric so the two pipelines stay directly comparable PR over PR), the
# live incremental-repartitioning cycle
# (BenchmarkLiveRepartition/{cold,warm}: both build the window's
# hypergraph; cold runs the full multilevel cut, warm refines the
# projected deployed placement; the script FAILS unless warm ns/op is
# strictly below cold, the same gate the bench-smoke CI job applies),
# the explanation-phase decision-tree trainer
# (BenchmarkExplain: columnar vs the seed implementation), the routing
# hot path (BenchmarkRouterLocate: HashIndex vs the compressed Compact /
# Runs representations, with per-table memory as table-bytes), the
# benchmark driver's histogram/record path and end-to-end overhead
# (BenchmarkHist*, BenchmarkDriverTPCC), the strategy-comparison
# experiment (BenchmarkBenchTPCC: the same TPC-C client streams under
# schism vs hash vs range vs full-replication routing), and the fault
# and recovery path (BenchmarkWALAppend/BenchmarkWALAnalyze: per-txn
# logging and recovery-scan cost; BenchmarkRecoveryReplay: WAL replay
# per restart as replay-ms/records; BenchmarkChaosConvergence: aborts
# under a crash schedule and converge-ms after it; BenchmarkFailover:
# per-replication-factor fault-free tps — the replication overhead vs
# the R=1 rows of BENCH_6 — plus time-to-new-leader ms, availability
# dip depth, and recover-ms across a leader kill), and the
# observability layer (BenchmarkObsRecord/-Disabled: counter+histogram
# hot path with a registry vs the nil "disabled" handles;
# BenchmarkTraceSpan/-Unsampled: a sampled span tree vs the pass-over
# path; BenchmarkBenchTPCCObs: the full TPC-C comparison with metrics
# ENABLED — compare its ns_per_op against BenchmarkBenchTPCC's, and
# BenchmarkBenchTPCC itself against the previous BENCH file, to bound
# the instrumentation overhead end to end: the metrics-disabled run
# must stay within 3% of the pre-obs baseline) — with -benchmem,
# recording the results as JSON so the perf trajectory is tracked PR
# over PR: BENCH_1.json for PR 1, BENCH_2.json for PR 2, and so on.
#
# JSON schema (BENCH_5.json and later): a single array of objects, one
# per benchmark line,
#   {
#     "name":          "BenchmarkBenchTPCC-8",   // bench name + GOMAXPROCS
#     "iters":         3,                        // b.N
#     "ns_per_op":     123456.0,                 // null if absent
#     "bytes_per_op":  789,                      // -benchmem, null if absent
#     "allocs_per_op": 12,                       // -benchmem, null if absent
#     "metrics": {                               // custom b.ReportMetric units,
#       "schism-tps": 601.0,                     // omitted when none; the bench
#       "hash-tps": 339.0,                       // experiment reports, per
#       "schism-p50-ms": 9.2,                    // strategy: <s>-tps, <s>-p50-ms,
#       "schism-dist-pct": 9.2,                  // <s>-p99-ms, <s>-dist-pct, and
#       "schism-routing-bytes": 79213            // schism-routing-bytes
#     }
#   }
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=10x scripts/bench.sh   # more iterations for stabler numbers
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_10.json}"
TXT="$(mktemp)"
trap 'rm -f "$TXT"' EXIT

go test -run '^$' -bench 'BenchmarkGraphBuild|BenchmarkHGraphBuild|BenchmarkNewGraph|BenchmarkPartKway|BenchmarkPartHKway|BenchmarkLiveRepartition|BenchmarkExplain|BenchmarkRouterLocate|BenchmarkRouterBuild|BenchmarkHistRecord|BenchmarkHistQuantile|BenchmarkDriverTPCC|BenchmarkBenchTPCC|BenchmarkWALAppend|BenchmarkWALAnalyze|BenchmarkRecoveryReplay|BenchmarkChaosConvergence|BenchmarkFailover|BenchmarkObsRecord|BenchmarkTraceSpan' -benchmem \
    -benchtime "${BENCHTIME:-3x}" . ./internal/graph ./internal/metis ./internal/dtree ./internal/lookup ./internal/cluster ./internal/cluster/wal ./internal/driver ./internal/experiments ./internal/obs | tee "$TXT"

awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    ns = "null"; bop = "null"; aop = "null"; extra = ""
    for (i = 3; i <= NF; i++) {
        if ($i == "ns/op")          ns  = $(i-1)
        else if ($i == "B/op")      bop = $(i-1)
        else if ($i == "allocs/op") aop = $(i-1)
        else if (i > 3 && $i !~ /^[0-9.+-]/) {
            # custom b.ReportMetric units (edgecut, table-bytes, tps, ...)
            if (extra != "") extra = extra ", "
            extra = extra "\"" $i "\": " $(i-1)
        }
    }
    if (!first) printf(",\n")
    first = 0
    printf("  {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s", $1, $2, ns, bop, aop)
    if (extra != "") printf(", \"metrics\": {%s}", extra)
    printf("}")
}
END { print "\n]" }
' "$TXT" > "$OUT"

echo "wrote $OUT"

# Warm-start gate: a warm (refine-only) live-repartitioning cycle must be
# strictly cheaper than the cold from-scratch cycle, or the warm path has
# regressed into repaying the full pipeline.
awk '
$1 ~ /^BenchmarkLiveRepartition\/cold/ { cold = $3 }
$1 ~ /^BenchmarkLiveRepartition\/warm/ { warm = $3 }
END {
    if (cold == "" || warm == "") {
        print "bench gate: BenchmarkLiveRepartition cold/warm results missing" > "/dev/stderr"
        exit 1
    }
    if (warm + 0 >= cold + 0) {
        printf("bench gate: warm cycle %.0f ns/op is not below cold %.0f ns/op\n", warm, cold) > "/dev/stderr"
        exit 1
    }
    printf("bench gate: warm cycle %.0f ns/op < cold %.0f ns/op (%.1fx)\n", warm, cold, cold / warm)
}' "$TXT"

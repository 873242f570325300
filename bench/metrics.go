package main

import (
	"math"
	"sort"
)

// metricDef names one metric and its unit. BENCHMARK.json carries the
// same names plus the direction and, for end-to-end metrics, the bound;
// TestBenchmarkJSONMatchesTables keeps the two in step.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd is what later changes are held to. Every workload reports
// every one of them with tracing off, and none is ever zero. Throughput,
// CPU per transaction and latency are not among them: on the shared box
// the bounds were measured on, two sets of runs of one commit differed by
// more than the widest bound a benchmark may set, so they are layer
// metrics (driver.*), still measured and compared but gating nothing
// (see README.md, "Steadiness").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_txn", "count"},
	{"alloc_kb_per_txn", "KB"},
	{"min_sites_per_txn", "sites"},
	{"peak_rss_mb", "MB"},
}

// perLayer is reported by the traced run only. A metric that does not
// apply to a workload reads 0 there.
var perLayer = []metricDef{
	{"sqlparse.parse_ns_per_stmt", "ns"},
	{"sqlparse.constraints_ns_per_stmt", "ns"},
	{"partition.route_ns_per_stmt", "ns"},
	{"partition.evaluate_ms", "ms"},
	{"lookup.locate_ns", "ns"},
	{"lookup.routing_bytes", "bytes"},
	{"txn.lock_ns_per_acquire", "ns"},
	{"txn.lock_waits_per_ktxn", "count"},
	{"txn.lock_dies_per_ktxn", "count"},
	{"storage.get_ns", "ns"},
	{"storage.update_ns", "ns"},
	{"wal.append_ns_per_txn", "ns"},
	{"wal.bytes_per_txn", "bytes"},
	{"cluster.aborts_per_txn", "count"},
	{"cluster.stmts_per_txn", "count"},
	{"cluster.stmt_p50_us", "us"},
	{"cluster.commit_p50_us", "us"},
	{"cluster.two_phase_frac", "fraction"},
	{"cluster.dist_stmt_frac", "fraction"},
	{"cluster.unattributed_us_per_txn", "us"},
	{"repl.r1_cpu_us_per_txn", "us"},
	{"repl.overhead_us_per_txn", "us"},
	{"repl.commit_apply_p50_us", "us"},
	{"driver.txn_per_s", "txn/s"},
	{"driver.cpu_us_per_txn", "us"},
	{"driver.op_p50_ms", "ms"},
	{"driver.neworder_p50_us", "us"},
	{"driver.payment_p50_us", "us"},
	{"driver.read_p50_us", "us"},
	{"driver.write_p50_us", "us"},
	{"driver.txn_p99_us", "us"},
	{"driver.txn_p999_us", "us"},
	{"driver.trace_overhead_frac", "fraction"},
	{"graph.build_ms", "ms"},
	{"graph.build_alloc_mb", "MB"},
	{"graph.nodes", "count"},
	{"graph.edges", "count"},
	{"graph.build_hyper_ms", "ms"},
	{"graph.hyper_nets", "count"},
	{"metis.part_ms", "ms"},
	{"metis.cut", "count"},
	{"metis.part_hyper_ms", "ms"},
	{"metis.conn_cost", "count"},
	{"core.graph_ms", "ms"},
	{"core.partition_ms", "ms"},
	{"core.explain_ms", "ms"},
	{"core.validate_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"live.record_ns_per_txn", "ns"},
	{"live.snapshot_ms", "ms"},
	{"live.score_ms", "ms"},
	{"live.graph_ms", "ms"},
	{"live.cut_ms", "ms"},
	{"live.relabel_ms", "ms"},
	{"live.plan_ms", "ms"},
	{"live.migrate_ms", "ms"},
	{"live.migrate_us_per_tuple", "us"},
	{"live.migrate_allocs_per_tuple", "count"},
	{"live.migrate_loaded_us_per_tuple", "us"},
	{"live.unattributed_ms", "ms"},
	{"live.full_cycles", "count"},
	{"live.warm_cycles", "count"},
	{"live.cycle_ms_max", "ms"},
	{"live.moved_tuples", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of vs (mean of the two middles for an even
// count), 0 for none. It does not modify vs.
func median(vs []float64) float64 {
	return quantile(vs, 0.5)
}

// quantile returns the q-quantile of vs by linear interpolation between
// order statistics, 0 for none.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

func maxOf(vs []float64) float64 {
	var m float64
	for _, v := range vs {
		m = math.Max(m, v)
	}
	return m
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

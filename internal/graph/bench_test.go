package graph_test

import (
	"sync"
	"testing"

	"schism/internal/graph"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// mustBuild unwraps graph.Build/BuildHyper for known-valid options.
func mustBuild(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// tpcc50 generates the TPCC-50W-scale trace used by the Fig. 4 experiment
// (~25k transactions over 50 warehouses). Generation is expensive, so the
// trace is built once and shared by every benchmark.
var tpcc50 = sync.OnceValue(func() *workload.Trace {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 50, Customers: 20, Items: 500,
		InitialOrders: 5, Txns: 25000, Seed: 5,
	})
	return w.Trace
})

// BenchmarkGraphBuild measures trace→graph construction (§4.1) on a
// TPCC-50W-scale trace with and without §5.1's coalescing. Run with
// -benchmem: the builder is the allocation front door of the whole
// pipeline.
func BenchmarkGraphBuild(b *testing.B) {
	tr := tpcc50()
	for _, bc := range []struct {
		name string
		opts graph.Options
	}{
		{"clique", graph.Options{Replication: true, Seed: 3}},
		{"clique-coalesce", graph.Options{Replication: true, Coalesce: true, Seed: 3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var nodes, edges int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := mustBuild(graph.Build(tr, bc.opts))
				nodes, edges = g.NumNodes(), g.NumEdges()
			}
			b.ReportMetric(float64(nodes), "nodes")
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkHGraphBuild measures the hypergraph-native build on the same
// TPCC-50W trace as BenchmarkGraphBuild — the acceptance comparison for
// the O(sum of access-set sizes) pin generation vs the quadratic clique
// expansion (compare against BenchmarkGraphBuild/clique).
func BenchmarkHGraphBuild(b *testing.B) {
	tr := tpcc50()
	for _, bc := range []struct {
		name string
		opts graph.Options
	}{
		{"hyper", graph.Options{Replication: true, Seed: 3}},
		{"hyper-coalesce", graph.Options{Replication: true, Coalesce: true, Seed: 3}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var nodes, nets int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g := mustBuild(graph.BuildHyper(tr, bc.opts))
				nodes, nets = g.NumNodes(), g.NumEdges()
			}
			b.ReportMetric(float64(nodes), "nodes")
			b.ReportMetric(float64(nets), "nets")
		})
	}
}

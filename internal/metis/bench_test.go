package metis

import (
	"math/rand"
	"sync"
	"testing"
)

// benchEdges synthesises a clique-heavy edge list shaped like graph.Build
// output: many small cliques over a large node space, with heavy duplicate
// edges (hot tuple pairs co-accessed by many transactions).
var benchEdges = sync.OnceValue(func() []BuilderEdge {
	const (
		numNodes = 60000
		numTxns  = 25000
	)
	rng := rand.New(rand.NewSource(17))
	edges := make([]BuilderEdge, 0, numTxns*28)
	for t := 0; t < numTxns; t++ {
		// A "transaction" clique of 3..8 nodes clustered around a home
		// region, mimicking warehouse locality.
		m := 3 + rng.Intn(6)
		home := rng.Intn(numNodes - 64)
		members := make([]int32, m)
		for i := range members {
			members[i] = int32(home + rng.Intn(64))
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if members[i] != members[j] {
					edges = append(edges, BuilderEdge{U: members[i], V: members[j], Weight: 1})
				}
			}
		}
	}
	return edges
})

// BenchmarkNewGraph measures edge-list→CSR assembly with duplicate
// folding, the inner loop of both graph construction and every coarsening
// level of the partitioner.
func BenchmarkNewGraph(b *testing.B) {
	edges := benchEdges()
	b.ReportAllocs()
	var g *Graph
	for i := 0; i < b.N; i++ {
		g = mustGraph(NewGraph(60000, edges, nil))
	}
	b.ReportMetric(float64(g.NumEdges()), "edges")
}

// BenchmarkContract times one contraction of tpccClique's graph by its
// heavy-edge matching: level 0 of the hierarchy PartKway builds for it.
// Run it with -cpu 1,2 to see the contraction's workers.
func BenchmarkContract(b *testing.B) {
	g := tpccClique(b)
	s := NewSolver()
	cmap := make([]int32, g.NumNodes())
	nc := s.heavyEdgeMatch(g, cmap)
	var out levelData
	s.contract(g, cmap, nc, &out)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.contract(g, cmap, nc, &out)
	}
	b.ReportMetric(float64(len(out.graph.Adj)), "entries")
}

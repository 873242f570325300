package metis

import (
	"errors"
	"testing"

	"schism/internal/workload"
	"schism/internal/workloads"
)

// TestEdgeWeightOverflowGuard exercises the int32 edge-weight invariant
// with an injected limit: NewGraph checks the folded total, Validate
// rejects a hand-built graph over it, and PartHKway scales the coarsest
// clique expansion instead of failing.
func TestEdgeWeightOverflowGuard(t *testing.T) {
	defer func(old int64) { maxEdgeWeight = old }(maxEdgeWeight)
	maxEdgeWeight = 20 // directed entries: twice the undirected sum

	// Duplicates fold before the check: 3+3+4 folds to {0,1}:6, {1,2}:4,
	// 20 in both directions, exactly the limit.
	edges := []BuilderEdge{{U: 0, V: 1, Weight: 3}, {U: 1, V: 0, Weight: 3}, {U: 1, V: 2, Weight: 4}}
	g, err := NewGraph(3, edges, nil)
	if err != nil {
		t.Fatalf("folded total at the limit rejected: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("graph at the limit fails Validate: %v", err)
	}
	_, err = NewGraph(3, append(edges, BuilderEdge{U: 0, V: 1, Weight: 1}), nil)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("folded total 22 over the limit: err = %v, want ErrTooLarge", err)
	}
	g.EWgt[0], g.EWgt[2] = 7, 7 // {0,1}:7 keeps symmetry, total 22
	if err := g.Validate(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Validate on total 22: err = %v, want ErrTooLarge", err)
	}

	// A hypergraph small enough to be its own coarsest level, with nets
	// heavy enough that the unscaled expansion weighs far past the limit.
	maxEdgeWeight = 2000
	const n, k = 60, 4
	var nets [][]int32
	var wgt []int64
	for i := int32(0); i < n; i++ {
		nets = append(nets, []int32{i, (i + 1) % n, (i + 7) % n})
		wgt = append(wgt, 50+int64(i%5))
	}
	h := hyperFromNets(n, nets, wgt, nil)
	if expandShift(h) == 0 {
		t.Fatal("test hypergraph does not overflow the lowered limit")
	}
	cg, err := NewSolver().cliqueExpandCoarsest(h)
	if err != nil {
		t.Fatalf("scaled expansion rejected: %v", err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatalf("scaled expansion invalid: %v", err)
	}
	parts, cost, err := PartHKway(h, k, Options{Seed: 3})
	if err != nil {
		t.Fatalf("PartHKway failed on an overflowing coarsest expansion: %v", err)
	}
	if got := h.ConnectivityCost(parts, k); got != cost {
		t.Fatalf("reported cost %d != recount %d", cost, got)
	}
	total := h.TotalNodeWeight()
	maxPW := max(int64(float64(total)/k*1.05), (total+k-1)/k) // sizeRefineScratch's cap
	for p, w := range h.PartWeights(parts, k) {
		if w > maxPW {
			t.Errorf("partition %d weighs %d, over the cap %d", p, w, maxPW)
		}
	}
}

// tpccClique is the clique expansion of a small TPC-C trace, one node per
// tuple and a weight-1 edge per co-accessing transaction, folded by
// NewGraph — the shape graph.Build gives the partitioner without
// replication.
func tpccClique(t testing.TB) *Graph {
	tr := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 4, Customers: 10, Items: 200, InitialOrders: 3, Txns: 2000, Seed: 5,
	}).Trace
	ids := map[workload.TupleID]int32{}
	var edges []BuilderEdge
	var mem []int32
	for _, txn := range tr.Txns {
		mem = mem[:0]
		for _, a := range txn.Accesses {
			id, ok := ids[a.Tuple]
			if !ok {
				id = int32(len(ids))
				ids[a.Tuple] = id
			}
			mem = append(mem, id)
		}
		for i, u := range mem {
			for _, v := range mem[i+1:] {
				edges = append(edges, BuilderEdge{U: u, V: v, Weight: 1})
			}
		}
	}
	g, err := NewGraph(len(ids), edges, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestContractByteBudget fails if a coarse level costs more than its CSR:
// 8 B per directed entry (int32 neighbour + int32 weight), against 12 B
// when weights were int64. Everything else one contraction allocates —
// node weights, offsets, member lists, stamp and slot tables, the one-row
// fold buffer — is linear in the fine node count.
func TestContractByteBudget(t *testing.T) {
	g := tpccClique(t)
	cmap := make([]int32, g.NumNodes())
	nc := NewSolver().heavyEdgeMatch(g, cmap)
	var out *levelData
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s := NewSolver()
			out = &levelData{}
			b.StartTimer()
			s.contract(g, cmap, nc, out)
		}
	})
	entries := int64(len(out.graph.Adj))
	budget := 8*entries + 64*int64(g.NumNodes())
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Errorf("contract allocated %d B for %d coarse entries from %d fine nodes; budget %d",
			got, entries, g.NumNodes(), budget)
	}
	t.Logf("%d B/op, %d coarse entries, %d coarse nodes, %d fine nodes, %d fine entries",
		res.AllocedBytesPerOp(), entries, nc, g.NumNodes(), len(g.Adj))
}

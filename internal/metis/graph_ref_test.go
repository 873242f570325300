package metis

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// naiveNewGraph is the original map-merge + sort.Slice CSR assembly, kept
// as the reference implementation for the counting-sort NewGraph.
func naiveNewGraph(numNodes int, edges []BuilderEdge, nodeWeights []int64) *Graph {
	merged := make(map[int64]int64, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		merged[int64(u)<<32|int64(uint32(v))] += e.Weight
	}
	keys := make([]int64, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	deg := make([]int32, numNodes)
	for _, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		deg[u]++
		deg[v]++
	}
	xadj := make([]int32, numNodes+1)
	for i := 0; i < numNodes; i++ {
		xadj[i+1] = xadj[i] + deg[i]
	}
	adj := make([]int32, xadj[numNodes])
	ewgt := make([]int32, xadj[numNodes])
	pos := make([]int32, numNodes)
	copy(pos, xadj[:numNodes])
	for _, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		w := int32(merged[k])
		adj[pos[u]], ewgt[pos[u]] = v, w
		pos[u]++
		adj[pos[v]], ewgt[pos[v]] = u, w
		pos[v]++
	}
	return &Graph{XAdj: xadj, Adj: adj, EWgt: ewgt, NWgt: nodeWeights}
}

// graphsEqual asserts element-wise CSR equality; nil and empty slices
// compare equal (a nil EWgt/NWgt is NOT equivalent to explicit ones).
func graphsEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.XAdj, want.XAdj) {
		t.Fatalf("XAdj mismatch:\n got %v\nwant %v", got.XAdj, want.XAdj)
	}
	if !slices.Equal(got.Adj, want.Adj) {
		t.Fatalf("Adj mismatch:\n got %v\nwant %v", got.Adj, want.Adj)
	}
	if !slices.Equal(got.EWgt, want.EWgt) {
		t.Fatalf("EWgt mismatch:\n got %v\nwant %v", got.EWgt, want.EWgt)
	}
	if !slices.Equal(got.NWgt, want.NWgt) {
		t.Fatalf("NWgt mismatch:\n got %v\nwant %v", got.NWgt, want.NWgt)
	}
}

// TestNewGraphMatchesNaive builds random edge lists — duplicates,
// self-loops, isolated nodes, zero and heavy weights — and asserts the
// counting-sort assembly is byte-identical to the naive reference.
func TestNewGraphMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		m := rng.Intn(6 * n)
		edges := make([]BuilderEdge, 0, m)
		for i := 0; i < m; i++ {
			e := BuilderEdge{
				U:      int32(rng.Intn(n)),
				V:      int32(rng.Intn(n)), // may self-loop; both must drop it
				Weight: int64(rng.Intn(5)), // weight 0 edges must survive merging
			}
			edges = append(edges, e)
		}
		var nwgt []int64
		if rng.Intn(2) == 0 {
			nwgt = make([]int64, n)
			for i := range nwgt {
				nwgt[i] = int64(1 + rng.Intn(9))
			}
		}
		got := mustGraph(NewGraph(n, edges, nwgt))
		want := naiveNewGraph(n, edges, nwgt)
		graphsEqual(t, got, want)
		if err := got.Validate(); err != nil {
			t.Fatalf("trial %d: invalid CSR: %v", trial, err)
		}
	}
}

func TestNewGraphEmpty(t *testing.T) {
	g := mustGraph(NewGraph(0, nil, nil))
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	g = mustGraph(NewGraph(3, nil, nil))
	if g.NumNodes() != 3 || g.NumEdges() != 0 {
		t.Fatalf("edgeless graph: nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if len(g.XAdj) != 4 {
		t.Fatalf("XAdj len = %d, want 4", len(g.XAdj))
	}
}

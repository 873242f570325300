package metis

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestContractMatchesNaive pins the direct-CSR contraction to be
// bit-identical to the old BuilderEdge+NewGraph path for the same
// matching, at 1, 2, 3 and 8 workers: random graphs (edgeless and
// near-clique shapes, unit and weighted nodes), graphs with fewer coarse
// nodes than workers, dense rows that sort through the bitmap, long rows
// over a wide id span that sort by comparison, and the two-byte and
// absent weight forms.
func TestContractMatchesNaive(t *testing.T) {
	defer func(old int) { maxWorkers = old }(maxWorkers)
	rng := rand.New(rand.NewSource(123))
	var graphs []*Graph
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(300)
		m := rng.Intn(5 * n)
		graphs = append(graphs, randomGraph(n, m, rng.Int63()))
	}
	graphs = append(graphs,
		randomGraph(1, 0, 1), randomGraph(2, 1, 2), randomGraph(3, 3, 3), randomGraph(5, 0, 4),
		randomGraph(200, 0, 5), randomGraph(200, 4000, 6), cliqueGraph(3, 40),
		randomGraph(16000, 100000, 7))
	unit := randomGraph(400, 3000, 8)
	unit.EWgt = nil
	short := randomGraph(400, 3000, 9)
	short.EWgt16 = make([]uint16, len(short.EWgt))
	for i, w := range short.EWgt {
		short.EWgt16[i] = uint16(w)
	}
	short.EWgt = nil
	graphs = append(graphs, unit, short)

	s := NewSolver()
	for gi, g := range graphs {
		s.src.Seed(rng.Int63())
		cmap := make([]int32, g.NumNodes())
		nc := s.heavyEdgeMatch(g, cmap)
		want := naiveContract(g, cmap, nc)
		for _, workers := range []int{1, 2, 3, 8} {
			maxWorkers = workers
			var out levelData
			s.contract(g, cmap, nc, &out)
			graphsEqual(t, &out.graph, want)
			if err := out.graph.Validate(); err != nil {
				t.Fatalf("graph %d, %d workers: invalid coarse CSR: %v", gi, workers, err)
			}
		}
	}
}

// qualityCase is one cell of the workload/seed/k quality matrix.
type qualityCase struct {
	name string
	g    *Graph
}

func qualityMatrix() []qualityCase {
	return []qualityCase{
		{"clique-4x15", cliqueGraph(4, 15)},
		{"clique-8x25", cliqueGraph(8, 25)},
		{"random-sparse", randomGraph(800, 1600, 21)},
		{"random-dense", randomGraph(500, 5000, 22)},
		{"random-large", randomGraph(4000, 16000, 23)},
	}
}

// TestPartKwayQualityVsNaive asserts the boundary-driven solver's edge
// cut is no worse than the kept full-sweep reference within a small
// tolerance, across the workload/seed/k matrix. Both sides are
// deterministic, so this cannot flake once green.
func TestPartKwayQualityVsNaive(t *testing.T) {
	for _, tc := range qualityMatrix() {
		for _, k := range []int{2, 8, 16} {
			for _, seed := range []int64{1, 7, 42} {
				parts, cut, err := PartKway(tc.g, k, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if got := tc.g.EdgeCut(parts); got != cut {
					t.Fatalf("%s k=%d seed=%d: reported cut %d != recount %d", tc.name, k, seed, cut, got)
				}
				_, refCut, err := naivePartKway(tc.g, k, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				// Tolerance: 10% relative plus a small absolute slack for
				// near-zero reference cuts.
				limit := refCut + refCut/10 + 8
				if cut > limit {
					t.Errorf("%s k=%d seed=%d: cut %d worse than naive reference %d (limit %d)",
						tc.name, k, seed, cut, refCut, limit)
				}
			}
		}
	}
}

// TestPartKwaySolverReuseByteIdentical verifies the scratch-reuse
// contract: the same (g, k, seed) gives byte-identical labels from a
// fresh Solver, a heavily reused Solver (including after runs on other
// graphs and k values that dirty every buffer), the package-level
// PartKway, and under different GOMAXPROCS values.
func TestPartKwaySolverReuseByteIdentical(t *testing.T) {
	g := randomGraph(1500, 6000, 31)
	other := randomGraph(700, 4000, 32)
	const k, seed = 12, 99

	want, wantCut, err := NewSolver().PartKway(g, k, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string, got []int32, cut int64) {
		t.Helper()
		if cut != wantCut {
			t.Fatalf("%s: cut %d != %d", label, cut, wantCut)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: labels differ at node %d", label, i)
			}
		}
	}

	s := NewSolver()
	for trial := 0; trial < 3; trial++ {
		got, cut, err := s.PartKway(g, k, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		check("reused solver", got, cut)
		// Dirty the solver's scratch with unrelated runs.
		if _, _, err := s.PartKway(other, 5, Options{Seed: 3}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.PartKway(other, 23, Options{Seed: 4}); err != nil {
			t.Fatal(err)
		}
	}

	got, cut, err := PartKway(g, k, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	check("package-level PartKway", got, cut)

	prev := runtime.GOMAXPROCS(0)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got, cut, err := PartKway(g, k, Options{Seed: seed})
		if err != nil {
			runtime.GOMAXPROCS(prev)
			t.Fatal(err)
		}
		check("GOMAXPROCS", got, cut)
	}
	runtime.GOMAXPROCS(prev)
}

// TestPartKwayBalanceCaps checks the balance invariant directly against
// the caps PartKway itself enforces: with unit node weights every
// partition must respect maxPW exactly; with weighted nodes a single
// node's weight of slack is allowed (a node can never be split).
func TestPartKwayBalanceCaps(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(1000)
		m := 2*n + rng.Intn(3*n)
		k := 2 + rng.Intn(15)
		unit := trial%2 == 0
		g := randomGraph(n, m, rng.Int63())
		if unit {
			g.NWgt = nil
		}
		seed := rng.Int63()
		parts, cut, err := PartKway(g, k, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range parts {
			if p < 0 || int(p) >= k {
				t.Fatalf("trial %d: label %d out of [0,%d)", trial, p, k)
			}
		}
		// Same seed must reproduce byte-identical labels on every
		// randomized graph, through the package-level PartKway.
		again, cut2, err := PartKway(g, k, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if cut2 != cut {
			t.Fatalf("trial %d: same-seed cut differs: %d vs %d", trial, cut, cut2)
		}
		for i := range parts {
			if parts[i] != again[i] {
				t.Fatalf("trial %d: same-seed labels differ at node %d", trial, i)
			}
		}
		total := g.TotalNodeWeight()
		maxPW := int64(float64(total) / float64(k) * 1.05)
		if ceil := (total + int64(k) - 1) / int64(k); maxPW < ceil {
			maxPW = ceil
		}
		var maxNW int64
		for i := 0; i < n; i++ {
			if w := g.NodeWeight(int32(i)); w > maxNW {
				maxNW = w
			}
		}
		slack := int64(0)
		if !unit {
			slack = maxNW
		}
		for p, w := range g.PartWeights(parts, k) {
			if w > maxPW+slack {
				t.Errorf("trial %d (unit=%v, n=%d, k=%d): partition %d weight %d exceeds cap %d (+slack %d)",
					trial, unit, n, k, p, w, maxPW, slack)
			}
		}
	}
}

// TestValidateMergeScan exercises the sorted-adjacency merge-scan
// symmetry check on corruptions the old map-based check also caught,
// plus the new sortedness requirement.
func TestValidateMergeScan(t *testing.T) {
	base := func() *Graph {
		return mustGraph(NewGraph(4, []BuilderEdge{
			{U: 0, V: 1, Weight: 2},
			{U: 0, V: 2, Weight: 3},
			{U: 1, V: 2, Weight: 4},
			{U: 2, V: 3, Weight: 5},
		}, nil))
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	g := base()
	g.EWgt[0] = 99 // directed weight mismatch
	if err := g.Validate(); err == nil {
		t.Error("weight mismatch accepted")
	}
	g = base()
	g.Adj[0], g.Adj[1] = g.Adj[1], g.Adj[0] // unsorted row
	g.EWgt[0], g.EWgt[1] = g.EWgt[1], g.EWgt[0]
	if err := g.Validate(); err == nil {
		t.Error("unsorted adjacency accepted")
	}
	g = base()
	g.Adj[len(g.Adj)-1] = 0 // retarget the last directed edge: asymmetry
	if err := g.Validate(); err == nil {
		t.Error("asymmetric graph accepted")
	}
}

// BenchmarkPartKwaySolver measures the partitioner with an explicitly
// reused Solver on a mid-size graph: steady-state allocations should be
// limited to the returned label slice.
func BenchmarkPartKwaySolver(b *testing.B) {
	g := randomGraph(10000, 50000, 1)
	s := NewSolver()
	if _, _, err := s.PartKway(g, 16, Options{Seed: 7}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.PartKway(g, 16, Options{Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTwoByteWeightsPartitionIdentically pins that EWgt16 is only a
// narrower encoding: the same weights held as uint16 validate, cut and
// partition exactly as they do as int32, on both refinement paths (FM
// bisection at k = 2, greedy k-way above).
func TestTwoByteWeightsPartitionIdentically(t *testing.T) {
	g := randomGraph(1500, 6000, 31)
	narrow := &Graph{XAdj: g.XAdj, Adj: g.Adj, EWgt16: make([]uint16, len(g.EWgt)), NWgt: g.NWgt}
	for j, w := range g.EWgt {
		narrow.EWgt16[j] = uint16(w)
	}
	if err := narrow.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 12} {
		want, wantCut, err := PartKway(g, k, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, cut, err := PartKway(narrow, k, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if cut != wantCut || !slices.Equal(got, want) {
			t.Fatalf("k=%d: two-byte weights cut %d, int32 weights %d (labels equal: %v)", k, cut, wantCut, slices.Equal(got, want))
		}
		if c := narrow.EdgeCut(got); c != wantCut {
			t.Fatalf("k=%d: EdgeCut over two-byte weights = %d, want %d", k, c, wantCut)
		}
	}
	both := *narrow
	both.EWgt = g.EWgt
	if err := both.Validate(); err == nil {
		t.Fatal("Validate accepted a graph with both EWgt and EWgt16 set")
	}
}

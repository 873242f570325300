package metis

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomLabels draws a deterministic random k-way assignment.
func randomLabels(n, k int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = int32(rng.Intn(k))
	}
	return parts
}

// TestRefineKwayImprovesRandomStart checks the warm-start entry point on
// the clique structure the full pipeline is tested with: refining a
// random assignment must respect the balance caps, report the true cut,
// and strictly beat the start.
func TestRefineKwayImprovesRandomStart(t *testing.T) {
	for _, k := range []int{2, 4} {
		g := cliqueGraph(k, 20)
		n := g.NumNodes()
		parts := randomLabels(n, k, 11)
		startCut := g.EdgeCut(parts)
		s := NewSolver()
		cut, err := s.RefineKway(g, k, parts, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := g.EdgeCut(parts); got != cut {
			t.Fatalf("k=%d: reported cut %d != recomputed %d", k, cut, got)
		}
		if cut >= startCut {
			t.Fatalf("k=%d: refinement did not improve: %d -> %d", k, startCut, cut)
		}
		checkBalance(t, g, parts, k, Options{Seed: 7})
	}
}

// TestRefineKwayPreservesGoodStart pins the steady-state contract: the
// full partitioner's own output is a fixed point whose cut warm
// refinement never worsens.
func TestRefineKwayPreservesGoodStart(t *testing.T) {
	g := cliqueGraph(4, 15)
	parts, cold, err := PartKway(g, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	warm := append([]int32(nil), parts...)
	cut, err := NewSolver().RefineKway(g, 4, warm, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if cut > cold {
		t.Fatalf("refining the full cut worsened it: %d -> %d", cold, cut)
	}
}

// checkBalance asserts no partition exceeds the cap RefineKway enforces.
func checkBalance(t *testing.T, g *Graph, parts []int32, k int, opts Options) {
	t.Helper()
	opts = opts.withDefaults(k)
	total := g.TotalNodeWeight()
	maxPW := int64(float64(total) / float64(k) * opts.Imbalance)
	if ceil := (total + int64(k) - 1) / int64(k); maxPW < ceil {
		maxPW = ceil
	}
	pw := make([]int64, k)
	for u, p := range parts {
		pw[p] += g.NodeWeight(int32(u))
	}
	for p, w := range pw {
		if w > maxPW {
			t.Fatalf("partition %d weight %d exceeds cap %d", p, w, maxPW)
		}
	}
}

// TestRefineKwayDeterministicAndReusable pins the warm-start determinism
// contract: equal (g, k, parts, opts) give byte-identical refined labels
// whether the Solver is fresh or reused.
func TestRefineKwayDeterministicAndReusable(t *testing.T) {
	g := cliqueGraph(3, 18)
	n := g.NumNodes()
	initial := randomLabels(n, 3, 4)
	opts := Options{Seed: 21}

	a := append([]int32(nil), initial...)
	cutA, err := NewSolver().RefineKway(g, 3, a, opts)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSolver()
	// Dirty the solver on an unrelated problem first.
	if _, _, err := s.PartKway(cliqueGraph(5, 9), 5, Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	b := append([]int32(nil), initial...)
	cutB, err := s.RefineKway(g, 3, b, opts)
	if err != nil {
		t.Fatal(err)
	}

	if cutA != cutB {
		t.Fatalf("cuts differ across solver states: %d, %d", cutA, cutB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("refined labels differ across solver states")
	}
}

// TestRefineKwayRejectsBadInput covers the typed precondition failures.
func TestRefineKwayRejectsBadInput(t *testing.T) {
	g := cliqueGraph(2, 5)
	n := g.NumNodes()
	if _, err := NewSolver().RefineKway(g, 0, make([]int32, n), Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewSolver().RefineKway(g, 2, make([]int32, n-1), Options{}); err == nil {
		t.Error("short label slice accepted")
	}
	bad := make([]int32, n)
	bad[3] = 2
	if _, err := NewSolver().RefineKway(g, 2, bad, Options{}); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := NewSolver().RefineHKway(clusterHyper(2, 8, 1), 2, []int32{9}, Options{}); err == nil {
		t.Error("hypergraph short/bad labels accepted")
	}
}

// stripedLabels assigns node i to part i % k: perfectly balanced but
// maximally cut, so refinement (not rebalance) does all the work.
func stripedLabels(n, k int) []int32 {
	parts := make([]int32, n)
	for i := range parts {
		parts[i] = int32(i % k)
	}
	return parts
}

// TestRefineHKwayImprovesStripedStart mirrors the plain-graph check on
// the connectivity metric. The start is balanced (striped) rather than
// random: greedy λ−1 refinement takes only non-worsening moves, so from
// a balanced start the cost is monotone, but an imbalanced random start
// can be pushed uphill by the mandatory rebalance with no FM pass to
// climb back down (the k=2 plain-graph path has fmRefine2 for exactly
// that; the connectivity path does not).
func TestRefineHKwayImprovesStripedStart(t *testing.T) {
	for _, k := range []int{2, 4} {
		// Clusters large enough that the 5% imbalance cap leaves slack
		// for individual moves (tiny graphs truncate the slack to zero,
		// freezing a perfectly balanced start).
		h := clusterHyper(k, 48, 3)
		n := h.NumNodes()
		parts := stripedLabels(n, k)
		startCost := h.ConnectivityCost(parts, k)
		cost, err := NewSolver().RefineHKway(h, k, parts, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.ConnectivityCost(parts, k); got != cost {
			t.Fatalf("k=%d: reported cost %d != recomputed %d", k, cost, got)
		}
		if cost >= startCost {
			t.Fatalf("k=%d: refinement did not improve: %d -> %d", k, startCost, cost)
		}
	}
}

// TestRefineHKwayDeterministicAndReusable is the hypergraph twin of the
// solver-state determinism pin.
func TestRefineHKwayDeterministicAndReusable(t *testing.T) {
	h := clusterHyper(3, 14, 5)
	initial := randomLabels(h.NumNodes(), 3, 8)
	opts := Options{Seed: 13}

	a := append([]int32(nil), initial...)
	costA, err := NewSolver().RefineHKway(h, 3, a, opts)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	if _, _, err := s.PartHKway(clusterHyper(4, 10, 9), 4, Options{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	b := append([]int32(nil), initial...)
	costB, err := s.RefineHKway(h, 3, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if costA != costB {
		t.Fatalf("costs differ across solver states: %d, %d", costA, costB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("refined labels differ across solver states")
	}
}

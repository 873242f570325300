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

// checkBalance asserts no partition exceeds the cap RefineHKway enforces.
func checkBalance(t *testing.T, h *HGraph, parts []int32, k int, opts Options) {
	t.Helper()
	opts = opts.withDefaults()
	total := h.TotalNodeWeight()
	maxPW := int64(float64(total) / float64(k) * opts.Imbalance)
	if ceil := (total + int64(k) - 1) / int64(k); maxPW < ceil {
		maxPW = ceil
	}
	for p, w := range h.PartWeights(parts, k) {
		if w > maxPW {
			t.Fatalf("partition %d weight %d exceeds cap %d", p, w, maxPW)
		}
	}
}

// TestRefineHKwayPreservesGoodStart pins the steady-state contract: the
// full partitioner's own output is a fixed point whose connectivity cost
// warm refinement never worsens, and it stays within the balance caps.
func TestRefineHKwayPreservesGoodStart(t *testing.T) {
	h := clusterHyper(4, 48, 3)
	parts, cold, err := PartHKway(h, 4, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	warm := append([]int32(nil), parts...)
	cost, err := NewSolver().RefineHKway(h, 4, warm, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if cost > cold {
		t.Fatalf("refining the full cut worsened it: %d -> %d", cold, cost)
	}
	checkBalance(t, h, warm, 4, Options{Seed: 9})
}

// TestRefineHKwayRejectsBadInput covers the precondition failures.
func TestRefineHKwayRejectsBadInput(t *testing.T) {
	h := clusterHyper(2, 8, 1)
	n := h.NumNodes()
	outOfRange := make([]int32, n)
	outOfRange[3] = 2
	negative := make([]int32, n)
	negative[0] = -1
	for _, tc := range []struct {
		name  string
		k     int
		parts []int32
	}{
		{"k=0", 0, make([]int32, n)},
		{"short label slice", 2, make([]int32, n-1)},
		{"empty label slice", 2, nil},
		{"label >= k", 2, outOfRange},
		{"negative label", 2, negative},
	} {
		if _, err := NewSolver().RefineHKway(h, tc.k, tc.parts, Options{}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
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

// TestRefineHKwayImprovesStripedStart: refining a bad assignment must
// respect the balance caps, report the true connectivity cost, and
// strictly beat the start. The improving start is balanced (striped)
// rather than random: greedy λ−1 refinement takes only non-worsening
// moves, so from a balanced start the cost is monotone, but an
// imbalanced random start can be pushed uphill by the mandatory
// rebalance with no FM pass to climb back down.
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
		checkBalance(t, h, parts, k, Options{Seed: 7})

		// A random start is imbalanced: the mandatory rebalance must
		// bring it under the caps, and the reported cost stays the true
		// one even when that pushes it uphill.
		parts = randomLabels(n, k, 11)
		cost, err = NewSolver().RefineHKway(h, k, parts, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.ConnectivityCost(parts, k); got != cost {
			t.Fatalf("k=%d random start: reported cost %d != recomputed %d", k, cost, got)
		}
		checkBalance(t, h, parts, k, Options{Seed: 7})
	}
}

// TestRefineHKwayDeterministicAndReusable pins the warm-start determinism
// contract: equal (h, k, parts, opts) give byte-identical refined labels
// whether the Solver is fresh or reused.
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

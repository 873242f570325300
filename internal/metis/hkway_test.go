package metis

import (
	"errors"
	"math/rand"
	"testing"
)

// hyperFromNets assembles an HGraph from explicit pin lists.
func hyperFromNets(numNodes int, nets [][]int32, netWgt, nodeWgt []int64) *HGraph {
	xpins := make([]int32, 1, len(nets)+1)
	var pins []int32
	for _, ns := range nets {
		pins = append(pins, ns...)
		xpins = append(xpins, int32(len(pins)))
	}
	return mustHGraph(NewHGraph(numNodes, xpins, pins, netWgt, nodeWgt))
}

func TestNewHGraphTranspose(t *testing.T) {
	h := hyperFromNets(4, [][]int32{{0, 1, 2}, {2, 3}, {1, 3}}, []int64{2, 5, 1}, nil)
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if h.NumNodes() != 4 || h.NumNets() != 3 || h.NumPins() != 7 {
		t.Fatalf("nodes=%d nets=%d pins=%d", h.NumNodes(), h.NumNets(), h.NumPins())
	}
	// Node 3 sits in nets 1 and 2, ascending.
	got := h.Nets[h.XNets[3]:h.XNets[4]]
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("nets of node 3 = %v, want [1 2]", got)
	}
}

func TestNewHGraphRejectsBadPins(t *testing.T) {
	if _, err := NewHGraph(3, []int32{0, 2}, []int32{0, 0}, nil, nil); err == nil {
		t.Error("duplicate pin accepted")
	}
	if _, err := NewHGraph(3, []int32{0, 2}, []int32{0, 7}, nil, nil); err == nil {
		t.Error("out-of-range pin accepted")
	}
}

func TestConnectivityCost(t *testing.T) {
	h := hyperFromNets(4, [][]int32{{0, 1, 2}, {2, 3}, {1, 3}}, []int64{2, 5, 1}, nil)
	// parts {0,0,1,1}: net 0 spans {0,1} -> (2-1)*2 = 2; net 1 inside 1
	// -> 0; net 2 spans {0,1} -> 1. Total 3.
	if c := h.ConnectivityCost([]int32{0, 0, 1, 1}, 2); c != 3 {
		t.Fatalf("ConnectivityCost = %d, want 3", c)
	}
	if c := h.ConnectivityCost([]int32{0, 0, 0, 0}, 1); c != 0 {
		t.Fatalf("one-part cost = %d, want 0", c)
	}
}

// clusterHyper builds c clusters of s nodes each: every cluster is
// covered by dense weight-10 nets, consecutive clusters share a single
// weight-1 bridge net. The optimal k=c partitioning keeps clusters whole
// at connectivity cost c-1.
func clusterHyper(c, s int, seed int64) *HGraph {
	rng := rand.New(rand.NewSource(seed))
	var nets [][]int32
	var wgt []int64
	for ci := 0; ci < c; ci++ {
		base := int32(ci * s)
		// A spanning net plus random small nets inside the cluster.
		all := make([]int32, s)
		for i := range all {
			all[i] = base + int32(i)
		}
		nets = append(nets, all)
		wgt = append(wgt, 10)
		for t := 0; t < 3*s; t++ {
			sz := 2 + rng.Intn(3)
			seen := map[int32]bool{}
			var pins []int32
			for len(pins) < sz {
				v := base + int32(rng.Intn(s))
				if !seen[v] {
					seen[v] = true
					pins = append(pins, v)
				}
			}
			nets = append(nets, pins)
			wgt = append(wgt, 10)
		}
		if ci > 0 {
			nets = append(nets, []int32{base - 1, base})
			wgt = append(wgt, 1)
		}
	}
	return hyperFromNets(c*s, nets, wgt, nil)
}

func TestPartHKwayTrivial(t *testing.T) {
	h := clusterHyper(2, 5, 1)
	parts, cost, err := PartHKway(h, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Errorf("k=1 cost = %d, want 0", cost)
	}
	for _, p := range parts {
		if p != 0 {
			t.Fatal("k=1 must assign everything to partition 0")
		}
	}
	if _, _, err := PartHKway(h, 0, Options{}); err == nil {
		t.Error("k=0 should error")
	}
	small := hyperFromNets(3, [][]int32{{0, 1}, {0, 1, 2}}, []int64{3, 2}, nil)
	parts, cost, err = PartHKway(small, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 7 {
		t.Errorf("k >= n cost = %d, want Σ w·(|e|−1) = 7", cost)
	}
	seen := map[int32]bool{}
	for _, p := range parts {
		if seen[p] {
			t.Error("k >= n should give distinct labels")
		}
		seen[p] = true
	}
}

func TestPartHKwayFindsClusterStructure(t *testing.T) {
	for _, tc := range []struct{ c, s, k int }{
		{2, 40, 2},
		{4, 30, 4},
		{8, 25, 8},
	} {
		h := clusterHyper(tc.c, tc.s, 3)
		parts, cost, err := PartHKway(h, tc.k, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		// Ideal: only the c-1 weight-1 bridge nets straddle.
		ideal := int64(tc.c - 1)
		if cost > ideal {
			t.Errorf("c=%d s=%d k=%d: cost = %d, want <= %d", tc.c, tc.s, tc.k, cost, ideal)
		}
		for ci := 0; ci < tc.c; ci++ {
			p0 := parts[ci*tc.s]
			for i := 1; i < tc.s; i++ {
				if parts[ci*tc.s+i] != p0 {
					t.Errorf("cluster %d split across partitions", ci)
					break
				}
			}
		}
		pw := h.PartWeights(parts, tc.k)
		limit := int64(float64(h.TotalNodeWeight())/float64(tc.k)*1.05) + 1
		for p, w := range pw {
			if w > limit {
				t.Errorf("partition %d weight %d exceeds limit %d", p, w, limit)
			}
		}
	}
}

// randomHyper generates a random hypergraph with net sizes 2..6.
func randomHyper(n, m int, seed int64) *HGraph {
	rng := rand.New(rand.NewSource(seed))
	var nets [][]int32
	var wgt []int64
	for i := 0; i < m; i++ {
		sz := 2 + rng.Intn(5)
		seen := map[int32]bool{}
		var pins []int32
		for len(pins) < sz {
			v := int32(rng.Intn(n))
			if !seen[v] {
				seen[v] = true
				pins = append(pins, v)
			}
		}
		nets = append(nets, pins)
		wgt = append(wgt, int64(1+rng.Intn(5)))
	}
	nwgt := make([]int64, n)
	for i := range nwgt {
		nwgt[i] = int64(1 + rng.Intn(3))
	}
	return hyperFromNets(n, nets, wgt, nwgt)
}

// TestPartHKwayInvariants checks on random hypergraphs that labels are
// in range, the reported connectivity cost matches an independent
// recount, and part weights respect the cap (with the single-node slack
// the plain-graph invariants test also allows).
func TestPartHKwayInvariants(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		seed := int64(trial * 977)
		n := 30 + trial*13
		m := 3 * n
		k := 2 + trial%8
		h := randomHyper(n, m, seed)
		parts, cost, err := PartHKway(h, k, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != n {
			t.Fatalf("trial %d: %d labels for %d nodes", trial, len(parts), n)
		}
		for _, p := range parts {
			if p < 0 || int(p) >= k {
				t.Fatalf("trial %d: label out of range: %d", trial, p)
			}
		}
		if recount := h.ConnectivityCost(parts, k); recount != cost {
			t.Fatalf("trial %d: cost mismatch: reported %d recount %d", trial, cost, recount)
		}
		total := h.TotalNodeWeight()
		limit := int64(float64(total)/float64(k)*1.05) + 1
		if ceil := (total + int64(k) - 1) / int64(k); limit < ceil {
			limit = ceil
		}
		var maxNW int64
		for i := 0; i < n; i++ {
			if w := h.NodeWeight(int32(i)); w > maxNW {
				maxNW = w
			}
		}
		for p, w := range h.PartWeights(parts, k) {
			if w > limit+maxNW {
				t.Errorf("trial %d: partition %d weight %d exceeds %d", trial, p, w, limit+maxNW)
			}
		}
	}
}

// TestPartHKwayDeterministic pins that equal (h, k, opts) give
// byte-identical output whether the solver is fresh or reused.
func TestPartHKwayDeterministic(t *testing.T) {
	h := randomHyper(400, 1200, 7)
	ref, refCost, err := PartHKway(h, 8, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	for run := 0; run < 3; run++ {
		parts, cost, err := s.PartHKway(h, 8, Options{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if cost != refCost {
			t.Fatalf("run %d: cost %d != %d", run, cost, refCost)
		}
		for i := range parts {
			if parts[i] != ref[i] {
				t.Fatalf("run %d: labels differ at node %d", run, i)
			}
		}
	}
	// Interleaving a plain-graph solve must not perturb the next
	// hypergraph solve on the same solver.
	if _, _, err := s.PartKway(cliqueGraph(4, 20), 4, Options{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	parts, cost, err := s.PartHKway(h, 8, Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if cost != refCost {
		t.Fatalf("after interleave: cost %d != %d", cost, refCost)
	}
	for i := range parts {
		if parts[i] != ref[i] {
			t.Fatalf("after interleave: labels differ at node %d", i)
		}
	}
}

// TestPartHKwayBeatsRandom checks the partitioner lands far below random
// assignment on a clustered hypergraph.
func TestPartHKwayBeatsRandom(t *testing.T) {
	h := clusterHyper(6, 25, 1)
	_, cost, err := PartHKway(h, 6, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	randParts := make([]int32, h.NumNodes())
	for i := range randParts {
		randParts[i] = int32(rng.Intn(6))
	}
	randCost := h.ConnectivityCost(randParts, 6)
	if cost*10 > randCost {
		t.Errorf("partitioner cost %d not ≪ random cost %d", cost, randCost)
	}
}

// TestHContractMergesNets pins contraction behaviour: pins map through
// cmap and deduplicate, single-pin nets vanish, and identical nets merge
// with summed weights.
func TestHContractMergesNets(t *testing.T) {
	h := hyperFromNets(6, [][]int32{
		{0, 1, 2}, // contracts to {A, B}
		{2, 3},    // contracts to {B} -> dropped
		{4, 5},    // contracts to {C, D}... see cmap below
		{0, 3},    // contracts to {A, B} -> merges with net 0
	}, []int64{2, 5, 1, 7}, nil)
	// cmap: {0,1}->0, {2,3}->1, {4}->2, {5}->3.
	cmap := []int32{0, 0, 1, 1, 2, 3}
	s := NewSolver()
	var out levelData
	s.hcontract(h, cmap, 4, &out)
	c := &out.hg
	if err := c.Validate(); err != nil {
		t.Fatalf("coarse Validate: %v", err)
	}
	if c.NumNets() != 2 {
		t.Fatalf("coarse nets = %d, want 2", c.NumNets())
	}
	// Net {0,1} (from fine nets 0 and 3) must carry weight 2+7.
	found := false
	for e := int32(0); int(e) < c.NumNets(); e++ {
		pins := c.netPins(e)
		if len(pins) == 2 && pins[0] == 0 && pins[1] == 1 {
			found = true
			if c.netWeight(e) != 9 {
				t.Errorf("merged net weight = %d, want 9", c.netWeight(e))
			}
		}
	}
	if !found {
		t.Fatal("coarse net {0,1} missing")
	}
	if c.TotalNodeWeight() != h.TotalNodeWeight() {
		t.Errorf("coarse total weight %d != fine %d", c.TotalNodeWeight(), h.TotalNodeWeight())
	}
}

// TestNewGraphOverflowGuard exercises the int32 CSR boundary with an
// injected limit: the folded directed-entry count must be checked before
// xadj offsets can wrap.
func TestNewGraphOverflowGuard(t *testing.T) {
	defer func(old int64) { maxCSREntries = old }(maxCSREntries)
	maxCSREntries = 8 // 4 undirected edges
	edges := []BuilderEdge{
		{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1},
		{U: 2, V: 3, Weight: 1}, {U: 3, V: 4, Weight: 1},
	}
	if _, err := NewGraph(5, edges, nil); err != nil {
		t.Fatalf("4 edges within limit rejected: %v", err)
	}
	// Duplicates fold first: 5 raw edges folding to 4 still fit.
	if _, err := NewGraph(5, append(edges[:4:4], BuilderEdge{U: 1, V: 0, Weight: 1}), nil); err != nil {
		t.Fatalf("folding duplicates must not trip the guard: %v", err)
	}
	over := append(edges[:4:4], BuilderEdge{U: 4, V: 0, Weight: 1})
	_, err := NewGraph(5, over, nil)
	if err == nil {
		t.Fatal("5 distinct edges over the limit accepted")
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error %v does not wrap ErrTooLarge", err)
	}
}

// TestNewHGraphOverflowGuard does the same for hypergraph pins.
func TestNewHGraphOverflowGuard(t *testing.T) {
	defer func(old int64) { maxCSREntries = old }(maxCSREntries)
	maxCSREntries = 4
	if _, err := NewHGraph(4, []int32{0, 2, 4}, []int32{0, 1, 2, 3}, nil, nil); err != nil {
		t.Fatalf("4 pins within limit rejected: %v", err)
	}
	_, err := NewHGraph(5, []int32{0, 2, 5}, []int32{0, 1, 2, 3, 4}, nil, nil)
	if err == nil {
		t.Fatal("5 pins over the limit accepted")
	}
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("error %v does not wrap ErrTooLarge", err)
	}
}

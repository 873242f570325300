package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"schism/internal/metis"
	"schism/internal/workload"
)

func TestBuildHyperBasic(t *testing.T) {
	g := mustBuild(BuildHyper(bankTrace(), Options{}))
	if g.HG == nil {
		t.Fatal("BuildHyper left HG nil")
	}
	if err := g.HG.Validate(); err != nil {
		t.Fatalf("invalid hypergraph: %v", err)
	}
	if got := g.NumNodes(); got != 5 {
		t.Fatalf("NumNodes = %d, want 5 (one per tuple)", got)
	}
	// Without replication every transaction touching >= 2 tuples becomes
	// one net over its tuples in first-access order, weight hyperNetScale.
	if got := g.HG.NumNets(); got != 4 {
		t.Fatalf("NumNets = %d, want 4 (one per transaction)", got)
	}
	node := func(key int64) int32 {
		gi := groupOf(g, workload.TupleID{Table: "account", Key: key})
		return g.groupBase[gi]
	}
	wantPins := [][]int32{
		{node(1), node(2)},
		{node(1), node(2), node(4), node(5)},
		{node(1), node(3)},
		{node(2), node(5)},
	}
	for e, want := range wantPins {
		pins := g.HG.Pins[g.HG.XPins[e]:g.HG.XPins[e+1]]
		if !reflect.DeepEqual(append([]int32(nil), pins...), want) {
			t.Errorf("net %d pins = %v, want %v", e, pins, want)
		}
		if w := g.HG.NetWgt[e]; w != hyperNetScale {
			t.Errorf("net %d weight = %d, want %d", e, w, hyperNetScale)
		}
	}
	if _, _, err := g.Partition(2, metis.Options{Seed: 1}); err != nil {
		t.Fatalf("Partition via hypergraph dispatch: %v", err)
	}
}

// naiveBuildPins recomputes what buildPins produces with a serial,
// map-based walk over the interned trace — the differential reference
// for the sharded two-pass builder.
func naiveBuildPins(g *Graph) (xpins, pins []int32, netWgt []int64) {
	xpins = []int32{0}
	c := g.Compact
	for ti := 0; ti < c.NumTxns(); ti++ {
		seen := make(map[int32]bool)
		var nodes []int32
		for _, a := range c.Txn(ti) {
			gi := g.GroupOf[a&^workload.WriteBit]
			if !seen[gi] {
				seen[gi] = true
				nodes = append(nodes, g.nodeFor(gi, int32(ti)))
			}
		}
		if len(nodes) < 2 {
			continue
		}
		pins = append(pins, nodes...)
		netWgt = append(netWgt, hyperNetScale)
		xpins = append(xpins, int32(len(pins)))
	}
	for gi := int32(0); int(gi) < len(g.groupBase); gi++ {
		if !g.exploded[gi] {
			continue
		}
		updates, armW := g.replWeights(gi)
		base := g.groupBase[gi]
		if updates > 0 {
			pins = append(pins, base)
			for ri := int32(0); ri < g.accCount[gi]; ri++ {
				pins = append(pins, base+1+ri)
			}
			netWgt = append(netWgt, hyperNetScale*updates)
			xpins = append(xpins, int32(len(pins)))
		}
		if armW > 0 {
			for ri := int32(0); ri < g.accCount[gi]; ri++ {
				pins = append(pins, base, base+1+ri)
				netWgt = append(netWgt, armW)
				xpins = append(xpins, int32(len(pins)))
			}
		}
	}
	return xpins, pins, netWgt
}

func TestBuildHyperMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		tr := randomTrace(rng, 200+trial*70)
		opts := Options{Replication: trial%2 == 0, Coalesce: trial%3 != 0, Seed: int64(trial)}
		g := mustBuild(BuildHyper(tr, opts))
		if err := g.HG.Validate(); err != nil {
			t.Fatalf("trial %d: invalid hypergraph: %v", trial, err)
		}
		xpins, pins, netWgt := naiveBuildPins(g)
		if !reflect.DeepEqual(g.HG.XPins, xpins) {
			t.Fatalf("trial %d: XPins mismatch", trial)
		}
		if !reflect.DeepEqual(g.HG.Pins, pins) {
			t.Fatalf("trial %d: Pins mismatch", trial)
		}
		if !reflect.DeepEqual(g.HG.NetWgt, netWgt) {
			t.Fatalf("trial %d: NetWgt mismatch", trial)
		}
	}
}

// TestBuildHyperWorkerDeterminism pins the satellite guarantee: the
// hypergraph is byte-identical no matter how many workers built it.
func TestBuildHyperWorkerDeterminism(t *testing.T) {
	defer func(old int) { maxWorkers = old }(maxWorkers)
	tr := randomTrace(rand.New(rand.NewSource(7)), 600)
	opts := Options{Replication: true, Coalesce: true, Seed: 3}
	maxWorkers = 1
	ref := mustBuild(BuildHyper(tr, opts))
	for _, w := range []int{2, 3, 8, 64} {
		maxWorkers = w
		g := mustBuild(BuildHyper(tr, opts))
		if !reflect.DeepEqual(g.HG.XPins, ref.HG.XPins) ||
			!reflect.DeepEqual(g.HG.Pins, ref.HG.Pins) ||
			!reflect.DeepEqual(g.HG.NetWgt, ref.HG.NetWgt) ||
			!reflect.DeepEqual(g.HG.NWgt, ref.HG.NWgt) {
			t.Fatalf("hypergraph built with %d workers differs from single-threaded build", w)
		}
	}
}

// TestBuildOverflowDifferential drives the clique expansion past int32
// CSR capacity — a handful of scans over ~21k tuples is enough, because
// the expansion is quadratic per transaction — and checks Build reports
// the overflow as a typed error while BuildHyper, linear in access-set
// size, handles the same trace fine.
func TestBuildOverflowDifferential(t *testing.T) {
	const tuples = 21000
	tr := workload.NewTrace()
	for i := 0; i < 10; i++ {
		acc := make([]workload.Access, tuples)
		for j := range acc {
			acc[j] = workload.Access{Tuple: workload.TupleID{Table: "t", Key: int64(j)}}
		}
		tr.Add(acc)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Build(tr, Options{})
	runtime.ReadMemStats(&after)
	if !errors.Is(err, metis.ErrTooLarge) {
		t.Fatalf("Build on quadratic blow-up: err = %v, want ErrTooLarge", err)
	}
	// The guard fires on row sizes alone: the failing call allocated the
	// front half (linear in the 210k accesses), not 2.2 G edges.
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("failing Build allocated %d MB", got>>20)
	}
	g, err := BuildHyper(tr, Options{})
	if err != nil {
		t.Fatalf("BuildHyper on the same trace: %v", err)
	}
	if err := g.HG.Validate(); err != nil {
		t.Fatalf("invalid hypergraph: %v", err)
	}
	if got := g.HG.NumNets(); got != 10 {
		t.Fatalf("NumNets = %d, want 10", got)
	}
}

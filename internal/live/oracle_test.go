package live

import (
	"math/rand"
	"reflect"
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// TestLiveHyperWithinCliqueOracle pins the live loop's hypergraph cut
// against the clique pipeline at the shape the repo benchmark's live-tpcc
// workload measures: TPC-C 16 W, k = 8, a 4 000-transaction window sliding
// over a trace whose hot warehouse moves, a deployed placement, then three
// warm cycles and the forced full cut. After each cycle the deployed
// placement's distributed fraction on that cycle's window must be within
// 10 % relative plus two points (TestHyperDifferentialMatrix's bound) of a
// from-scratch graph.Build + PartKway placement of the same window.
//
// Each cycle is also replayed step by step — ProjectLabels + RefineHKway
// or PartHKway on the cycle's own hypergraph, then the cycle's label
// permutation — which must reproduce its Assignments exactly; the
// replayed node labels give the partition weights the balance bound is
// checked on, which the tuple-level result does not carry.
func TestLiveHyperWithinCliqueOracle(t *testing.T) {
	window, perCycle := 4000, 1000
	if testing.Short() {
		window, perCycle = 1000, 250
	}
	const (
		k      = 8
		cycles = 4 // FullCutEveryN below: warm, warm, warm, full
		hot    = 0.3
	)
	draws := 0
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 16, Districts: 10, Customers: 30, Items: 200, InitialOrders: 10,
		// The generator drops the odd empty transaction; 5% spare covers it.
		Txns: (window + cycles*perCycle) * 21 / 20, Seed: 1,
		// The hot warehouse moves five warehouses on every two cycles, so
		// warm cycles see both a settled and a freshly shifted window.
		PickWarehouse: func(rng *rand.Rand, warehouses int) int {
			at := (max(draws-window, 0)/(2*perCycle)*5)%warehouses + 1
			draws++
			if rng.Float64() < hot {
				return at
			}
			return 1 + rng.Intn(warehouses)
		},
	})
	if w.Trace.Len() < window+cycles*perCycle {
		t.Fatalf("trace has %d transactions, need %d", w.Trace.Len(), window+cycles*perCycle)
	}
	gopts := graph.Options{Coalesce: true, Replication: true, Seed: 1}
	mopts := metis.Options{Seed: 1}
	rep := mustRep(t, RepartitionConfig{K: k, Graph: gopts, Metis: mopts, WarmStart: true, FullCutEveryN: cycles})

	win := NewWindow(WindowConfig{Capacity: window})
	for _, tx := range w.Trace.Txns[:window] {
		win.Record(tx.Accesses)
	}
	deployed := map[workload.TupleID][]int{}
	locate := func(id workload.TupleID) []int { return deployed[id] }
	deploy := func(res *Repartition) {
		for i, id := range res.Tuples {
			deployed[id] = res.Assignments[i]
		}
	}
	initial, err := rep.Repartition(win.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	deploy(initial)

	rest := w.Trace.Txns[window:]
	for c := 0; c < cycles; c++ {
		for _, tx := range rest[c*perCycle : (c+1)*perCycle] {
			win.Record(tx.Accesses)
		}
		snap := win.Snapshot()
		res, err := rep.RepartitionDrift(snap, locate, 1)
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		wantMode := ModeWarm
		if c == cycles-1 {
			wantMode = ModeFull
		}
		if res.Mode != wantMode {
			t.Fatalf("cycle %d ran in mode %s, want %s", c, res.Mode, wantMode)
		}

		// Replay against the still-undeployed placement the cycle saw.
		g := res.Graph
		var parts []int32
		if res.Mode == ModeWarm {
			parts = g.ProjectLabels(k, locate)
			_, err = metis.NewSolver().RefineHKway(g.HG, k, parts, mopts)
		} else {
			parts, _, err = metis.PartHKway(g.HG, k, mopts)
		}
		if err != nil {
			t.Fatalf("cycle %d replay: %v", c, err)
		}
		for u := range parts {
			parts[u] = int32(res.Perm[parts[u]])
		}
		if !reflect.DeepEqual(g.DenseAssignments(parts), res.Assignments) {
			t.Fatalf("cycle %d: replaying the %s cycle on its hypergraph gives a different placement", c, res.Mode)
		}
		// Balance: the partitioner's own bound, 5 % over perfect plus one
		// heaviest node of slack.
		var maxNW, totalNW int64
		for _, nw := range g.HG.NWgt {
			totalNW += nw
			maxNW = max(maxNW, nw)
		}
		limit := int64(float64(totalNW)*1.05/k) + 1 + maxNW
		for p, pw := range g.PartWeights(parts, k) {
			if pw > limit {
				t.Errorf("cycle %d: partition %d weight %d over balance bound %d", c, p, pw, limit)
			}
		}
		for i, set := range res.Assignments {
			if len(set) == 0 {
				t.Fatalf("cycle %d: window tuple %v left unassigned", c, res.Tuples[i])
			}
		}
		deploy(res)

		cg, err := graph.Build(snap, gopts)
		if err != nil {
			t.Fatalf("cycle %d: clique build: %v", c, err)
		}
		cparts, _, err := metis.PartKway(cg.CSR, k, mopts)
		if err != nil {
			t.Fatalf("cycle %d: clique partition: %v", c, err)
		}
		csets := cg.DenseAssignments(cparts)
		oracle := ScoreWindow(snap, k, func(id workload.TupleID) []int {
			if d, ok := cg.Intern.Lookup(id); ok {
				return csets[d]
			}
			return nil
		}).Distributed
		got := ScoreWindow(snap, k, locate).Distributed
		t.Logf("cycle %d (%s): live dist %.1f%%, clique oracle %.1f%%, moved %d of %d",
			c, res.Mode, 100*got, 100*oracle, res.Diff.Moved, res.Diff.Total)
		if limit := oracle*1.10 + 0.02; got > limit {
			t.Errorf("cycle %d (%s): live dist frac %.3f above tolerance %.3f (clique oracle %.3f)",
				c, res.Mode, got, limit, oracle)
		}
	}
}

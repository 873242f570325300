package live

import (
	"reflect"
	"slices"
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// mustRep unwraps NewRepartitioner for configurations known to be valid.
func mustRep(t *testing.T, cfg RepartitionConfig) *Repartitioner {
	t.Helper()
	rep, err := NewRepartitioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRepartitionCycleSeedDeterminism pins the per-cycle sampling
// contract: with a fixed base seed and transaction sampling enabled, two
// fresh repartitioners produce byte-identical sampled graphs at each
// cycle index, while successive cycles draw genuinely different samples
// instead of replaying one sample forever. A cycle's graph lives only
// until the next call, so each is copied out as soon as its cycle ends.
func TestRepartitionCycleSeedDeterminism(t *testing.T) {
	w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
		Rows: 1600, GroupSize: 4, Txns: 2000, Seed: 1,
	})
	cfg := RepartitionConfig{
		K:     4,
		Graph: graph.Options{Coalesce: true, TxnSampleRate: 0.5, Seed: 9},
		Metis: metis.Options{Seed: 7},
	}

	const cycles = 3
	type cycleGraph struct {
		res   *Repartition
		hg    metis.HGraph // a copy of the cycle's hypergraph
		edges int
	}
	run := func() []cycleGraph {
		rep := mustRep(t, cfg)
		var out []cycleGraph
		for c := 0; c < cycles; c++ {
			res, err := rep.Repartition(w.Trace, nil)
			if err != nil {
				t.Fatal(err)
			}
			h := res.Graph.HG
			out = append(out, cycleGraph{res: res, edges: res.Graph.NumEdges(), hg: metis.HGraph{
				XPins: slices.Clone(h.XPins), Pins: slices.Clone(h.Pins),
				NetWgt: slices.Clone(h.NetWgt), NWgt: slices.Clone(h.NWgt),
				XNets: slices.Clone(h.XNets), Nets: slices.Clone(h.Nets),
			}})
		}
		return out
	}
	a, b := run(), run()

	for c := 0; c < cycles; c++ {
		if a[c].res.Cycle != uint64(c) {
			t.Fatalf("cycle index = %d, want %d", a[c].res.Cycle, c)
		}
		if a[c].res.SampleSeed != b[c].res.SampleSeed {
			t.Fatalf("cycle %d: sample seeds differ across repartitioners", c)
		}
		if !reflect.DeepEqual(a[c].hg, b[c].hg) {
			t.Fatalf("cycle %d: sampled graphs differ across fresh repartitioners", c)
		}
		if !reflect.DeepEqual(a[c].res.Assignments, b[c].res.Assignments) {
			t.Fatalf("cycle %d: assignments differ across fresh repartitioners", c)
		}
	}
	// Different cycles must sample differently (the pre-fix behavior was
	// SampleSeed == base for every cycle).
	if a[0].res.SampleSeed == a[1].res.SampleSeed {
		t.Fatal("cycles 0 and 1 derived the same sampling seed")
	}
	if a[0].edges == a[1].edges && reflect.DeepEqual(a[0].hg.Pins, a[1].hg.Pins) {
		t.Fatal("cycles 0 and 1 produced identical sampled graphs; sampling is not cycle-dependent")
	}
}

// TestRepartitionResultOutlivesNextCycle pins Repartition's lifetime
// contract: the repartitioner rebuilds its graph in place, but a cycle's
// Tuples, Assignments, Perm and LocateFunc stay valid for good. Cycle 0's
// outputs are kept the way adapt.go and the benchmark keep them — its
// LocateFunc taken at once and deployed — and three more cycles run, warm
// and full, over windows that grow and shrink. Cycle 0's outputs must
// then answer exactly as a deep copy taken right after it did, through
// the kept LocateFunc and through one taken only now.
func TestRepartitionResultOutlivesNextCycle(t *testing.T) {
	w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
		Rows: 1600, GroupSize: 4, Txns: 6000, Seed: 2,
	})
	window := func(lo, hi int) *workload.Trace {
		tr := workload.NewTrace()
		for _, tx := range w.Trace.Txns[lo:hi] {
			tr.Add(tx.Accesses)
		}
		return tr
	}
	const k = 4
	rep := mustRep(t, RepartitionConfig{K: k,
		Graph:     graph.Options{Coalesce: true, Replication: true, Seed: 9},
		Metis:     metis.Options{Seed: 7},
		WarmStart: true})

	first, err := rep.Repartition(window(0, 2000), nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := first.LocateFunc()
	tuples := slices.Clone(first.Tuples)
	perm := slices.Clone(first.Perm)
	sets := make([][]int, len(first.Assignments))
	want := make(map[workload.TupleID][]int, len(tuples))
	for i, set := range first.Assignments {
		sets[i] = slices.Clone(set)
		want[tuples[i]] = sets[i]
	}

	// Later cycles chain onto cycle 0's placement as adapt.go does.
	locate := kept
	for i, step := range []struct {
		lo, hi int
		drift  float64
		mode   CycleMode
	}{
		{500, 3500, 1, ModeWarm},   // grows
		{3000, 4200, 10, ModeFull}, // shrinks
		{3500, 6000, 1, ModeWarm},  // grows again
	} {
		res, err := rep.RepartitionDrift(window(step.lo, step.hi), locate, step.drift)
		if err != nil {
			t.Fatalf("cycle %d: %v", i+1, err)
		}
		if res.Mode != step.mode {
			t.Fatalf("cycle %d ran %s, want %s", i+1, res.Mode, step.mode)
		}
		prev, cur := locate, res.LocateFunc()
		locate = func(id workload.TupleID) []int {
			if parts := cur(id); parts != nil {
				return parts
			}
			return prev(id)
		}
	}

	if !reflect.DeepEqual(first.Tuples, tuples) || !reflect.DeepEqual(first.Perm, perm) {
		t.Fatal("cycle 0's Tuples or Perm changed under later cycles")
	}
	if !reflect.DeepEqual(first.Assignments, sets) {
		t.Fatal("cycle 0's Assignments changed under later cycles")
	}
	late := first.LocateFunc()
	for _, tx := range w.Trace.Txns {
		for _, a := range tx.Accesses {
			for name, fn := range map[string]LocateFunc{"kept": kept, "late": late} {
				if got := fn(a.Tuple); !reflect.DeepEqual(got, want[a.Tuple]) {
					t.Fatalf("%s LocateFunc of cycle 0: %v -> %v, want %v", name, a.Tuple, got, want[a.Tuple])
				}
			}
		}
	}
}

// TestRepartitionHyper checks the hypergraph-native path end to end with
// replication on: same window, valid placement covering every tuple.
func TestRepartitionHyper(t *testing.T) {
	w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
		Rows: 1600, GroupSize: 4, Txns: 2000, Seed: 1,
	})
	cfg := RepartitionConfig{
		K:     4,
		Graph: graph.Options{Coalesce: true, Replication: true, Seed: 9},
		Metis: metis.Options{Seed: 7},
	}
	res, err := mustRep(t, cfg).Repartition(w.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.HG == nil {
		t.Fatal("repartition built no hypergraph")
	}
	if len(res.Tuples) != len(res.Assignments) {
		t.Fatalf("placement covers %d tuples with %d assignments", len(res.Tuples), len(res.Assignments))
	}
	for i, set := range res.Assignments {
		if len(set) == 0 {
			t.Fatalf("tuple %d has an empty replica set", i)
		}
		for _, p := range set {
			if p < 0 || p >= cfg.K {
				t.Fatalf("tuple %d assigned to partition %d outside [0,%d)", i, p, cfg.K)
			}
		}
	}
}

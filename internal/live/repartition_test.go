package live

import (
	"reflect"
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
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
// instead of replaying one sample forever.
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
	run := func() []*Repartition {
		rep := mustRep(t, cfg)
		var out []*Repartition
		for c := 0; c < cycles; c++ {
			res, err := rep.Repartition(w.Trace, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
		return out
	}
	a, b := run(), run()

	for c := 0; c < cycles; c++ {
		if a[c].Cycle != uint64(c) {
			t.Fatalf("cycle index = %d, want %d", a[c].Cycle, c)
		}
		if a[c].SampleSeed != b[c].SampleSeed {
			t.Fatalf("cycle %d: sample seeds differ across repartitioners", c)
		}
		ga, gb := a[c].Graph, b[c].Graph
		if !reflect.DeepEqual(ga.HG, gb.HG) {
			t.Fatalf("cycle %d: sampled graphs differ across fresh repartitioners", c)
		}
		if !reflect.DeepEqual(a[c].Assignments, b[c].Assignments) {
			t.Fatalf("cycle %d: assignments differ across fresh repartitioners", c)
		}
	}
	// Different cycles must sample differently (the pre-fix behavior was
	// SampleSeed == base for every cycle).
	if a[0].SampleSeed == a[1].SampleSeed {
		t.Fatal("cycles 0 and 1 derived the same sampling seed")
	}
	if a[0].Graph.NumEdges() == a[1].Graph.NumEdges() &&
		reflect.DeepEqual(a[0].Graph.HG.Pins, a[1].Graph.HG.Pins) {
		t.Fatal("cycles 0 and 1 produced identical sampled graphs; sampling is not cycle-dependent")
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

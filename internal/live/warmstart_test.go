package live

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"schism/internal/graph"
	"schism/internal/lookup"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// TestWarmRepartitionDeterministic pins the warm-start counterpart of the
// cycle-seed contract: with a fixed seed, a full cut followed by warm
// refine-only cycles chained through the deployed placement produces
// byte-identical placements on every run, at any GOMAXPROCS.
func TestWarmRepartitionDeterministic(t *testing.T) {
	w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
		Rows: 1600, GroupSize: 4, Txns: 2000, Seed: 1,
	})
	cfg := RepartitionConfig{
		K:     4,
		Graph: graph.Options{Coalesce: true, Seed: 9},
		Metis: metis.Options{Seed: 7},
		// Force every post-deployment cycle down the warm path.
		WarmStart: true, FullCutEveryN: -1, DriftCutThreshold: -1,
	}

	const cycles = 3
	run := func() []*Repartition {
		rep := mustRep(t, cfg)
		var locate LocateFunc
		var out []*Repartition
		for c := 0; c < cycles; c++ {
			res, err := rep.RepartitionDrift(w.Trace, locate, 1)
			if err != nil {
				t.Fatal(err)
			}
			locate = res.LocateFunc()
			out = append(out, res)
		}
		return out
	}

	prev := runtime.GOMAXPROCS(1)
	a := run()
	runtime.GOMAXPROCS(runtime.NumCPU())
	b := run()
	runtime.GOMAXPROCS(prev)

	for c := 0; c < cycles; c++ {
		wantMode := ModeWarm
		if c == 0 {
			wantMode = ModeFull // no deployed placement to project yet
		}
		if a[c].Mode != wantMode || b[c].Mode != wantMode {
			t.Fatalf("cycle %d: modes %s/%s, want %s", c, a[c].Mode, b[c].Mode, wantMode)
		}
		if a[c].EdgeCut != b[c].EdgeCut {
			t.Fatalf("cycle %d: cuts %d vs %d across GOMAXPROCS", c, a[c].EdgeCut, b[c].EdgeCut)
		}
		if !reflect.DeepEqual(a[c].Assignments, b[c].Assignments) {
			t.Fatalf("cycle %d: assignments differ across GOMAXPROCS", c)
		}
		if !reflect.DeepEqual(a[c].Perm, b[c].Perm) {
			t.Fatalf("cycle %d: perms differ across GOMAXPROCS", c)
		}
		if c == 0 {
			continue
		}
		// Refining the deployed placement over the same window keeps every
		// tuple placed and stays near the seed it was projected from.
		for i, set := range a[c].Assignments {
			if len(set) == 0 {
				t.Fatalf("cycle %d: tuple %v left unassigned by the warm cycle", c, a[c].Tuples[i])
			}
		}
		if d := a[c].Diff; d.Total != len(a[c].Tuples) || d.MovedFrac() > 0.2 {
			t.Fatalf("cycle %d: warm cycle compared %d of %d tuples and moved %.0f%%; refine-only should stay near the deployment",
				c, d.Total, len(a[c].Tuples), 100*d.MovedFrac())
		}
	}
}

// TestDriftEscapeFullCut checks the policy's escape hatch end to end: a
// hotspot shift whose drift measurement clears DriftCutThreshold abandons
// the warm path for a full cut whose quality matches a from-scratch
// partitioning of the shifted window, and the escape resets the periodic
// backstop so the next quiet cycle is warm again.
func TestDriftEscapeFullCut(t *testing.T) {
	cfgA := workloads.YCSBGroupsConfig{Rows: 1600, GroupSize: 4, Txns: 2000, Phase: 0, Seed: 1}
	cfgB := cfgA
	cfgB.Phase, cfgB.Seed = 1, 2
	phaseA := workloads.YCSBGroups(cfgA)
	phaseB := workloads.YCSBGroups(cfgB)

	const k = 4
	cfg := RepartitionConfig{
		K:     k,
		Graph: graph.Options{Coalesce: true, Seed: 7},
		Metis: metis.Options{Seed: 7},
		// Defaults: FullCutEveryN 16, DriftCutThreshold 3.
		WarmStart: true,
	}
	rep := mustRep(t, cfg)

	initial, err := rep.Repartition(phaseA.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	if initial.Mode != ModeFull {
		t.Fatalf("initial cycle mode %s, want %s (nothing to project)", initial.Mode, ModeFull)
	}

	steady, err := rep.RepartitionDrift(phaseA.Trace, locateOf(initial, k), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if steady.Mode != ModeWarm {
		t.Fatalf("steady cycle mode %s, want %s under low drift", steady.Mode, ModeWarm)
	}

	esc, err := rep.RepartitionDrift(phaseB.Trace, locateOf(steady, k), 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if esc.Mode != ModeFull {
		t.Fatalf("shifted cycle mode %s, want %s above DriftCutThreshold", esc.Mode, ModeFull)
	}

	scratch, err := mustRep(t, RepartitionConfig{
		K: k, Graph: cfg.Graph, Metis: cfg.Metis,
	}).Repartition(phaseB.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	escDist := ScoreWindow(phaseB.Trace, k, locateOf(esc, k)).Distributed
	scratchDist := ScoreWindow(phaseB.Trace, k, locateOf(scratch, k)).Distributed
	if escDist > scratchDist+0.02 {
		t.Fatalf("escape cut %%distributed %.3f, from-scratch %.3f: escape did not converge",
			escDist, scratchDist)
	}

	// The full cut reset sinceFull, so a quiet follow-up cycle is warm and
	// stays within tolerance of the from-scratch quality.
	post, err := rep.RepartitionDrift(phaseB.Trace, locateOf(esc, k), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if post.Mode != ModeWarm {
		t.Fatalf("post-escape cycle mode %s, want %s (backstop counter reset)", post.Mode, ModeWarm)
	}
	if postDist := ScoreWindow(phaseB.Trace, k, locateOf(post, k)).Distributed; postDist > scratchDist+0.05 {
		t.Fatalf("post-escape warm cycle %%distributed %.3f, from-scratch %.3f", postDist, scratchDist)
	}
}

// TestRepartitionDiffSinglePass pins the single-pass diff against the old
// two-pass semantics: with a deployed placement that is a pure rotation of
// the fresh cut, the relabeler finds a non-identity permutation, Diff
// equals a recomputed AssignmentDiff over the relabeled sets, and
// NaiveDiff equals the diff over the pre-relabel sets (reconstructed via
// the inverse permutation) — exactly what the second DenseAssignments
// pass used to produce.
func TestRepartitionDiffSinglePass(t *testing.T) {
	w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
		Rows: 1600, GroupSize: 4, Txns: 2000, Seed: 1,
	})
	const k = 4
	cfg := RepartitionConfig{
		K:     k,
		Graph: graph.Options{Coalesce: true, Seed: 9},
		Metis: metis.Options{Seed: 7},
	}
	rep := mustRep(t, cfg)
	initial, err := rep.Repartition(w.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Deploy a rotation of the initial cut: every label p becomes (p+1)%k.
	deployed := make(map[workload.TupleID][]int, len(initial.Tuples))
	for i, id := range initial.Tuples {
		set := make([]int, len(initial.Assignments[i]))
		for j, p := range initial.Assignments[i] {
			set[j] = (p + 1) % k
		}
		sort.Ints(set)
		deployed[id] = set
	}
	locate := func(id workload.TupleID) []int { return deployed[id] }

	res, err := rep.Repartition(w.Trace, locate)
	if err != nil {
		t.Fatal(err)
	}
	if res.Perm[0] == 0 && res.Perm[1] == 1 && res.Perm[2] == 2 && res.Perm[3] == 3 {
		t.Fatal("rotated deployment produced the identity permutation; fixture is broken")
	}

	oldSets := make([][]int, len(res.Tuples))
	for d, id := range res.Tuples {
		oldSets[d] = locate(id)
	}
	if got := partition.AssignmentDiff(oldSets, res.Assignments, k); !reflect.DeepEqual(got, res.Diff) {
		t.Fatalf("Diff = %+v, recomputed over relabeled assignments %+v", res.Diff, got)
	}

	// Undo the relabel (Perm maps pre-label l to post-label Perm[l]) to
	// recover the raw partitioner output the old first pass diffed.
	inv := make([]int, k)
	for l, p := range res.Perm {
		inv[p] = l
	}
	naive := make([][]int, len(res.Assignments))
	for i, set := range res.Assignments {
		naive[i] = make([]int, len(set))
		for j, p := range set {
			naive[i][j] = inv[p]
		}
		sort.Ints(naive[i])
	}
	if got := partition.AssignmentDiff(oldSets, naive, k); !reflect.DeepEqual(got, res.NaiveDiff) {
		t.Fatalf("NaiveDiff = %+v, recomputed over pre-relabel assignments %+v", res.NaiveDiff, got)
	}
	if res.Diff.Moved > res.NaiveDiff.Moved/2 {
		t.Fatalf("relabeling saved too little on a rotated deployment: moved %d vs naive %d",
			res.Diff.Moved, res.NaiveDiff.Moved)
	}
}

// TestLocateFuncResolvesThroughInterner: the placement closure answers
// Assignments[i] for every Tuples[i] and nil for anything the window did
// not hold, from any goroutine, and building it costs the same few
// objects whatever the window size (no per-tuple table).
func TestLocateFuncResolvesThroughInterner(t *testing.T) {
	var allocs []float64
	for _, txns := range []int{500, 4000} {
		w := workloads.YCSBGroups(workloads.YCSBGroupsConfig{
			Rows: 1600, GroupSize: 4, Txns: txns, Seed: 1,
		})
		res, err := mustRep(t, RepartitionConfig{
			K:     4,
			Graph: graph.Options{Coalesce: true, Seed: 9},
			Metis: metis.Options{Seed: 7},
		}).Repartition(w.Trace, nil)
		if err != nil {
			t.Fatal(err)
		}

		locate := res.LocateFunc()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, id := range res.Tuples {
					if got := locate(id); len(got) == 0 || !reflect.DeepEqual(got, res.Assignments[i]) {
						t.Errorf("locate(%v) = %v, want Assignments[%d] = %v", id, got, i, res.Assignments[i])
						return
					}
				}
			}()
		}
		wg.Wait()
		known := res.Tuples[0]
		if got := locate(workload.TupleID{Table: "nosuch", Key: known.Key}); got != nil {
			t.Errorf("unknown table located at %v", got)
		}
		if got := locate(workload.TupleID{Table: known.Table, Key: -1}); got != nil {
			t.Errorf("unknown key located at %v", got)
		}

		allocs = append(allocs, testing.AllocsPerRun(100, func() {
			if res.LocateFunc()(known) == nil {
				t.Fatal("placement lost between calls")
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[0] > 2 {
		t.Fatalf("LocateFunc allocates %v objects per call over 500- and 4000-transaction windows; want one small constant", allocs)
	}
}

// TestRepartitionConfigRejectsBadK covers the typed validation on both
// constructors: a partition count outside 1..lookup.MaxPartitions fails
// at wiring time with a *ConfigError naming the field.
func TestRepartitionConfigRejectsBadK(t *testing.T) {
	if err := (RepartitionConfig{K: lookup.MaxPartitions}).Validate(); err != nil {
		t.Fatalf("K=%d rejected: %v", lookup.MaxPartitions, err)
	}
	for _, k := range []int{0, -4, lookup.MaxPartitions + 1} {
		_, err := NewRepartitioner(RepartitionConfig{K: k})
		var ce *ConfigError
		if !errors.As(err, &ce) || ce.Field != "K" {
			t.Fatalf("NewRepartitioner(K=%d) error = %v, want *ConfigError on K", k, err)
		}
		ce = nil
		_, err = NewController(Config{K: k}, nil, nil)
		if !errors.As(err, &ce) || ce.Field != "K" {
			t.Fatalf("NewController(K=%d) error = %v, want *ConfigError on K", k, err)
		}
	}
}

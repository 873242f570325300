package live

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// refBuildPlanSets is BuildPlanSets as it was before moves were cut from
// shared arrays: one SetDelta pair per moved tuple.
func refBuildPlanSets(tuples []workload.TupleID, oldSets, newSets [][]int) Plan {
	var p Plan
	for i, id := range tuples {
		to, from := newSets[i], oldSets[i]
		if to == nil || from == nil {
			continue
		}
		adds, dels := partition.SetDelta(from, to)
		if len(adds) == 0 && len(dels) == 0 {
			continue
		}
		m := Move{Table: id.Table, Key: id.Key, CopyFrom: from[0], Adds: adds, Dels: dels, To: to}
		for _, f := range from {
			if slices.Contains(to, f) {
				m.CopyFrom = f
				break
			}
		}
		p.Moves = append(p.Moves, m)
		p.Copies += len(adds)
		p.Drops += len(dels)
	}
	return p
}

// randomPlanSets returns n sorted, duplicate-free replica sets over labels
// below k, with nil (unknown) sets mixed in, and empty ones if empty is
// set. A deployed set is never empty: the planner copies from its first
// replica.
func randomPlanSets(rng *rand.Rand, n, k int, empty bool) [][]int {
	sets := make([][]int, n)
	for i := range sets {
		switch rng.Intn(8) {
		case 0:
			continue
		case 1:
			if empty {
				sets[i] = []int{}
				continue
			}
		}
		for len(sets[i]) == 0 {
			for p := 0; p < k; p++ {
				if rng.Intn(3) == 0 {
					sets[i] = append(sets[i], p)
				}
			}
			if empty {
				break
			}
		}
	}
	return sets
}

// TestBuildPlanSetsMatchesSetDelta checks the shared-array planner against
// the per-tuple SetDelta planner on random sets, and that the cut sets are
// capped: appending to one move's Adds or Dels leaves every other move's
// sets as they were.
func TestBuildPlanSetsMatchesSetDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 30; round++ {
		n, k := 1+rng.Intn(200), 1+rng.Intn(6)
		tuples := make([]workload.TupleID, n)
		for i := range tuples {
			tuples[i] = workload.TupleID{Table: "t", Key: int64(i)}
		}
		oldSets, newSets := randomPlanSets(rng, n, k, false), randomPlanSets(rng, n, k, true)
		got, want := BuildPlanSets(tuples, oldSets, newSets), refBuildPlanSets(tuples, oldSets, newSets)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: plan differs from the per-tuple SetDelta plan:\n got %+v\nwant %+v", round, got, want)
		}
		for i := range got.Moves {
			m := &got.Moves[i]
			m.Adds = append(m.Adds, -1)
			m.Dels = append(m.Dels, -1)
		}
		for i, m := range got.Moves {
			w := want.Moves[i]
			if !slices.Equal(m.Adds[:len(m.Adds)-1], w.Adds) || !slices.Equal(m.Dels[:len(m.Dels)-1], w.Dels) {
				t.Fatalf("round %d: move %d's sets changed to %v/%v when its neighbours were appended to, want %v/%v",
					round, i, m.Adds, m.Dels, w.Adds, w.Dels)
			}
		}
	}
}

// TestWarmCycleAllocsIndependentOfWindow pins the decision path's
// allocations: a warm cycle (Snapshot, ScoreWindow, RepartitionDrift,
// BuildPlanSets) over a TPC-C window of 4 000 transactions allocates about
// as many objects as one over 1 000. Per-group replica sets, a per-hash
// coalescing slice, a *Txn per snapshot transaction or a delta pair per
// moved tuple would each add thousands.
func TestWarmCycleAllocsIndependentOfWindow(t *testing.T) {
	const k = 8
	sizes := []int{1000, 4000}
	tr := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 4, Districts: 10, Customers: 30, Items: 200, InitialOrders: 10,
		Txns: sizes[1] * 3 / 2, Seed: 1,
	}).Trace
	var mallocs []uint64
	for _, n := range sizes {
		if tr.Len() < n*5/4 {
			t.Fatalf("trace has %d transactions, need %d", tr.Len(), n*5/4)
		}
		win := NewWindow(WindowConfig{Capacity: n})
		for _, tx := range tr.Txns[:n] {
			win.Record(tx.Accesses)
		}
		rep := mustRep(t, RepartitionConfig{K: k,
			Graph:     graph.Options{Coalesce: true, Replication: true, Seed: 1},
			Metis:     metis.Options{Seed: 1},
			WarmStart: true, FullCutEveryN: -1, DriftCutThreshold: -1})
		initial, err := rep.Repartition(win.Snapshot(), nil)
		if err != nil {
			t.Fatal(err)
		}
		// A plain map, so that resolving the deployment allocates nothing.
		deployed := make(map[workload.TupleID][]int, len(initial.Tuples))
		for i, id := range initial.Tuples {
			deployed[id] = initial.Assignments[i]
		}
		locate := func(id workload.TupleID) []int { return deployed[id] }
		// A quarter of the window turns over before the measured cycle.
		for _, tx := range tr.Txns[n : n*5/4] {
			win.Record(tx.Accesses)
		}
		var res *Repartition
		var plan Plan
		_, allocs := allocated(func() {
			snap := win.Snapshot()
			ScoreWindow(snap, k, locate)
			if res, err = rep.RepartitionDrift(snap, locate, 1); err == nil {
				plan = BuildPlanSets(res.Tuples, res.Deployed, res.Assignments)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != ModeWarm || len(plan.Moves) == 0 {
			t.Fatalf("window %d: a %s cycle planning %d moves, want a warm cycle that moves tuples", n, res.Mode, len(plan.Moves))
		}
		t.Logf("window %d: %d allocations, %d tuples, %d moves", n, allocs, len(res.Tuples), len(plan.Moves))
		mallocs = append(mallocs, allocs)
	}
	if d, limit := int64(mallocs[1])-int64(mallocs[0]), int64(64+2*k); d > limit || -d > limit {
		t.Errorf("windows of %d and %d transactions: %d and %d allocations, want within %d of each other",
			sizes[0], sizes[1], mallocs[0], mallocs[1], limit)
	}
}

// TestWarmCycleBytes pins the decision path's bytes on the shape of the
// live-tpcc benchmark (16 warehouses, a 4 000-transaction window, k = 8,
// a quarter of the window turned over): a warm cycle — Snapshot,
// ScoreWindow, RepartitionDrift, BuildPlanSets — stays in the dense form
// and rebuilds its hypergraph in the initial cycle's arrays, so it
// allocates under 95 B per windowed access. It reads 89.0: this window
// outgrows the initial one in nearly every array, so the measured cycle
// still regrows them once (later cycles fit in the headroom; graph's
// TestRebuildHyperSteadyStateBytes pins that). Each pin-building worker
// regrows a dedup array of its own (~0.4 B per access), so the test runs
// at a fixed GOMAXPROCS of 2, the cores the bound was measured on, and
// reads the same at any -cpu (88.5–91.6 at 1–8 unfixed). A fresh
// hypergraph per cycle reads 96.7; rehydrating the snapshot into
// workload.Access values, a per-tuple score table or TupleID group
// members push it past 150.
func TestWarmCycleBytes(t *testing.T) {
	const k, window, turnover = 8, 4000, 1000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tr := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 16, Districts: 10, Customers: 30, Items: 200, InitialOrders: 10,
		Txns: (window + turnover) * 21 / 20, Seed: 3,
	}).Trace
	if tr.Len() < window+turnover {
		t.Fatalf("trace has %d transactions, need %d", tr.Len(), window+turnover)
	}
	win := NewWindow(WindowConfig{Capacity: window})
	for _, tx := range tr.Txns[:window] {
		win.Record(tx.Accesses)
	}
	rep := mustRep(t, RepartitionConfig{K: k,
		Graph:     graph.Options{Coalesce: true, Replication: true, Seed: 3},
		Metis:     metis.Options{Seed: 3},
		WarmStart: true, FullCutEveryN: -1, DriftCutThreshold: -1})
	initial, err := rep.Repartition(win.Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	deployed := make(map[workload.TupleID][]int, len(initial.Tuples))
	for i, id := range initial.Tuples {
		deployed[id] = initial.Assignments[i]
	}
	locate := func(id workload.TupleID) []int { return deployed[id] }
	for _, tx := range tr.Txns[window : window+turnover] {
		win.Record(tx.Accesses)
	}
	var accesses int
	var res *Repartition
	var plan Plan
	bytes, _ := allocated(func() {
		snap := win.Snapshot()
		accesses = len(workload.CompactTrace(snap).Accs)
		ScoreWindow(snap, k, locate)
		if res, err = rep.RepartitionDrift(snap, locate, 1); err == nil {
			plan = BuildPlanSets(res.Tuples, res.Deployed, res.Assignments)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeWarm || len(plan.Moves) == 0 {
		t.Fatalf("a %s cycle planning %d moves, want a warm cycle that moves tuples", res.Mode, len(plan.Moves))
	}
	perAccess := float64(bytes) / float64(accesses)
	t.Logf("%d B for %d accesses (%.1f B/access), %d tuples, %d moves", bytes, accesses, perAccess, len(res.Tuples), len(plan.Moves))
	if perAccess > 95 {
		t.Errorf("a warm cycle allocated %.1f B per windowed access, want <= 95", perAccess)
	}
}

// TestWarmCycleCheaperThanFull is the warm-start gate. On one fixed
// TPC-C window (16 warehouses, 4 000 transactions, k = 8) it compares the
// bytes of two RepartitionDrift cycles against the same deployed
// placement: a warm one, which projects the placement onto the window's
// hypergraph and refines it in place, and a full one, which coarsens the
// hypergraph level by level and cuts it from scratch. Each runs on a
// fresh repartitioner, so each pays for its own solver scratch, and the
// gap is the multilevel hierarchy a warm cycle never builds. Measured:
// warm/full = 0.29 (12.3–12.5 MB against 42.1–42.2 MB) at GOMAXPROCS 1,
// 2 and 4; a warm cycle sent through the full cut reads about 1.0. The
// bound is 0.5. A repartitioner keeps its solver, so its later full cycles reuse
// that hierarchy; the root BenchmarkLiveRepartition times both kinds of
// cycle at TPCC-50W scale.
func TestWarmCycleCheaperThanFull(t *testing.T) {
	const k, window = 8, 4000
	tr := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 16, Districts: 10, Customers: 20, Items: 200, InitialOrders: 5,
		Txns: window, Seed: 5,
	}).Trace
	win := NewWindow(WindowConfig{Capacity: window})
	for _, tx := range tr.Txns {
		win.Record(tx.Accesses)
	}
	snap := win.Snapshot()
	// The deployment is cut with another partitioner seed than the
	// measured cycles, so relabelling and the diffs do real work.
	base := RepartitionConfig{K: k,
		Graph: graph.Options{Replication: true, Coalesce: true, Seed: 3},
		Metis: metis.Options{Seed: 7}}
	deployed, err := mustRep(t, base).Repartition(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(cfg RepartitionConfig, want CycleMode) uint64 {
		cfg.Metis.Seed = 8
		rep := mustRep(t, cfg)
		var res *Repartition
		bytes, _ := allocated(func() { res, err = rep.RepartitionDrift(snap, deployed.LocateFunc(), 1) })
		if err != nil {
			t.Fatal(err)
		}
		if res.Mode != want {
			t.Fatalf("a %s cycle, want %s", res.Mode, want)
		}
		return bytes
	}
	full := cycle(base, ModeFull)
	warmCfg := base
	warmCfg.WarmStart, warmCfg.FullCutEveryN, warmCfg.DriftCutThreshold = true, -1, -1
	warm := cycle(warmCfg, ModeWarm)
	ratio := float64(warm) / float64(full)
	t.Logf("warm cycle %d B, full cycle %d B (warm/full %.3f)", warm, full, ratio)
	if ratio > 0.5 {
		t.Errorf("a warm cycle allocated %d B, %.2f of a full cycle's %d B; want at most 0.5", warm, ratio, full)
	}
}

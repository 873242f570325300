package graph

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"schism/internal/workload"
	"schism/internal/workloads"
)

// fixedLocate is a deployed placement every rebuild step projects: some
// tuples unplaced, some on one partition, some on two, by a hash of the
// tuple alone, so equal graphs must project to equal labels.
func fixedLocate(k int) func(workload.TupleID) []int {
	return func(id workload.TupleID) []int {
		h := fnv.New32a()
		fmt.Fprint(h, id.Table, id.Key)
		p := int(h.Sum32() % uint32(k))
		switch id.Key % 5 {
		case 0:
			return nil
		case 1:
			return []int{p, (p + 1) % k}
		}
		return []int{p}
	}
}

// TestRebuildHyperMatchesFresh rebuilds one Graph through traces that
// grow, shrink, grow again and change shape (TPC-C, YCSB groups), under
// every option combination and with the worker count alternating, and
// checks each step against a fresh BuildHyper of the same trace: the
// recycled arrays must never leak the previous build into the next.
func TestRebuildHyperMatchesFresh(t *testing.T) {
	defer func(old int) { maxWorkers = old }(maxWorkers)
	rng := rand.New(rand.NewSource(5))
	steps := []struct {
		name string
		tr   *workload.Trace
	}{
		{"random-400", randomTrace(rng, 400)},
		{"random-150", randomTrace(rng, 150)},
		{"random-600", randomTrace(rng, 600)},
		{"tpcc", workloads.TPCC(workloads.TPCCConfig{
			Warehouses: 2, Customers: 10, Items: 40, InitialOrders: 3, Txns: 300, Seed: 4,
		}).Trace},
		{"ycsb-groups", workloads.YCSBGroups(workloads.YCSBGroupsConfig{
			Rows: 800, GroupSize: 4, Txns: 400, Seed: 4,
		}).Trace},
	}
	const k = 4
	locate := fixedLocate(k)
	for _, repl := range []bool{false, true} {
		for _, coal := range []bool{false, true} {
			for _, rate := range []float64{0, 0.5} {
				name := fmt.Sprintf("repl=%v/coalesce=%v/sample=%v", repl, coal, rate)
				t.Run(name, func(t *testing.T) {
					g := new(Graph)
					for i, st := range steps {
						maxWorkers = []int{1, 4}[i%2]
						opts := Options{Replication: repl, Coalesce: coal, TxnSampleRate: rate, Seed: int64(i)}
						if err := g.RebuildHyper(st.tr, opts); err != nil {
							t.Fatalf("step %s: %v", st.name, err)
						}
						fresh := mustBuild(BuildHyper(st.tr, opts))
						switch {
						case !reflect.DeepEqual(g.HG, fresh.HG):
							t.Fatalf("step %s: hypergraph differs from a fresh build", st.name)
						case !reflect.DeepEqual(g.GroupOf, fresh.GroupOf):
							t.Fatalf("step %s: GroupOf differs from a fresh build", st.name)
						case !reflect.DeepEqual(g.Members, fresh.Members) || !reflect.DeepEqual(g.MemberOff, fresh.MemberOff):
							t.Fatalf("step %s: group members differ from a fresh build", st.name)
						case g.NumNodes() != fresh.NumNodes():
							t.Fatalf("step %s: %d nodes, fresh build %d", st.name, g.NumNodes(), fresh.NumNodes())
						}
						if got, want := g.ProjectLabels(k, locate), fresh.ProjectLabels(k, locate); !reflect.DeepEqual(got, want) {
							t.Fatalf("step %s: projected labels differ from a fresh build's", st.name)
						}
					}
				})
			}
		}
	}
}

// TestRebuildHyperSteadyStateBytes pins what recycling buys: once a graph
// has been rebuilt from one window of a sliding TPC-C trace (4 000
// transactions, the live-tpcc benchmark's shape), rebuilding it from the
// next allocates under 64 KB, where a fresh build of the same window
// allocates megabytes. What is left is per-build bookkeeping (the
// workers' goroutines and shard counters); a rebuild that reallocates
// any per-tuple, per-group or per-pin array blows the budget.
func TestRebuildHyperSteadyStateBytes(t *testing.T) {
	const window, slide = 4000, 1000
	tr := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 16, Districts: 10, Customers: 30, Items: 200, InitialOrders: 10,
		Txns: (window + 2*slide) * 21 / 20, Seed: 3,
	}).Trace
	if tr.Len() < window+2*slide {
		t.Fatalf("trace has %d transactions, need %d", tr.Len(), window+2*slide)
	}
	windows := make([]*workload.Trace, 3)
	for i := range windows {
		windows[i] = workload.NewTrace()
		for _, tx := range tr.Txns[i*slide : i*slide+window] {
			windows[i].Add(tx.Accesses)
		}
		workload.CompactTrace(windows[i]) // intern outside the measurement
	}
	opts := Options{Coalesce: true, Replication: true, Seed: 3}
	g := mustBuild(BuildHyper(windows[0], opts))
	if err := g.RebuildHyper(windows[1], opts); err != nil {
		t.Fatal(err)
	}
	measure := func(fn func() error) (bytes, objects uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := fn()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	freshBytes, freshObjects := measure(func() error { _, err := BuildHyper(windows[2], opts); return err })
	bytes, objects := measure(func() error { return g.RebuildHyper(windows[2], opts) })
	t.Logf("%d-transaction window (%d nodes, %d pins): rebuild %d B in %d objects, fresh build %d B in %d",
		window, g.NumNodes(), g.HG.NumPins(), bytes, objects, freshBytes, freshObjects)
	if bytes >= 64<<10 {
		t.Errorf("a steady-state rebuild allocated %d B, want < 64 KB", bytes)
	}
}

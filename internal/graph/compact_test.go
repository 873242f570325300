package graph_test

import (
	"fmt"
	"reflect"
	"testing"

	"schism/internal/graph"
	"schism/internal/live"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// TestCompactOnlyMatchesExpanded builds every graph twice: from a
// compact-only trace (workload.FromCompact, or a live window snapshot)
// and from its expanded twin, a plain trace with the same transactions.
// The builds must be identical — CSR or hypergraph, groups, members,
// node weights and tuple table — over the shaped traces and a window
// snapshot, across the option matrix and more sampling rates and seeds:
// the build samples the interned form, so a sampled trace is a
// renumbered Compact.
func TestCompactOnlyMatchesExpanded(t *testing.T) {
	traces := map[string]*workload.Trace{}
	for name, tr := range graph.ShapedTraces() {
		traces[name] = workload.FromCompact(workload.CompactTrace(tr))
	}
	tpcc := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: 10, Items: 40, InitialOrders: 3, Txns: 400, Seed: 5,
	}).Trace
	// The window wraps, so it has reinterned before the snapshot.
	w := live.NewWindow(live.WindowConfig{Capacity: 120})
	for _, tx := range tpcc.Txns {
		w.Record(tx.Accesses)
	}
	traces["window-decay0"] = w.Snapshot()
	matrix := append(graph.OptsMatrix(),
		graph.Options{Replication: true, Coalesce: true, TxnSampleRate: 0.6, Seed: 5},
		graph.Options{Replication: true, TxnSampleRate: 0.3, Seed: 6},
		graph.Options{Coalesce: true, TxnSampleRate: 0.7, Seed: 7},
		graph.Options{TxnSampleRate: 0.1, Seed: 8},
		graph.Options{Replication: true, Coalesce: true, TxnSampleRate: 0.9, Seed: 9},
		graph.Options{Replication: true, TxnSampleRate: 1, Seed: 10},
	)
	builders := map[string]func(*workload.Trace, graph.Options) (*graph.Graph, error){
		"Build": graph.Build, "BuildHyper": graph.BuildHyper,
	}
	for name, dense := range traces {
		if len(dense.Txns) != 0 {
			t.Fatalf("%s: a compact-only trace has %d Txns", name, len(dense.Txns))
		}
		twin := graph.Expand(workload.CompactTrace(dense))
		for oi, opts := range matrix {
			for bname, build := range builders {
				t.Run(fmt.Sprintf("%s/opts%d/%s", name, oi, bname), func(t *testing.T) {
					got, err := build(dense, opts)
					if err != nil {
						t.Fatal(err)
					}
					want, err := build(twin, opts)
					if err != nil {
						t.Fatal(err)
					}
					assertSameGraph(t, got, want)
				})
			}
		}
	}
}

func assertSameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"CSR", got.CSR, want.CSR},
		{"HG", got.HG, want.HG},
		{"Nodes", got.Nodes, want.Nodes},
		{"GroupOf", got.GroupOf, want.GroupOf},
		{"Members", got.Members, want.Members},
		{"MemberOff", got.MemberOff, want.MemberOff},
		{"tuples", got.Intern.Tuples(), want.Intern.Tuples()},
		{"Compact.Off", got.Compact.Off, want.Compact.Off},
		{"Compact.Accs", got.Compact.Accs, want.Compact.Accs},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Fatalf("%s differs between the compact-only trace and its expanded twin", f.name)
		}
	}
	if got.NumNodes() == 0 {
		t.Fatal("empty graph: the comparison proves nothing")
	}
}

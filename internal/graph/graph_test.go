package graph

import (
	"testing"

	"schism/internal/metis"
	"schism/internal/workload"
)

// mustBuild unwraps Build/BuildHyper for options known to be valid.
func mustBuild(g *Graph, err error) *Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// denseOf returns the dense id of a tuple the graph represents.
func denseOf(g *Graph, id workload.TupleID) int32 {
	d, ok := g.Intern.Lookup(id)
	if !ok {
		panic("tuple not in graph: " + id.String())
	}
	return d
}

// groupOf returns the group of a tuple the graph represents.
func groupOf(g *Graph, id workload.TupleID) int32 { return g.GroupOf[denseOf(g, id)] }

// bankTrace reconstructs the paper's running example (Figures 2 and 3):
// an account table with five tuples and four transactions.
func bankTrace() *workload.Trace {
	acct := func(id int64) workload.TupleID { return workload.TupleID{Table: "account", Key: id} }
	tr := workload.NewTrace()
	// T0: transfer carlo(1) -> evan(2): writes both.
	tr.Add([]workload.Access{{Tuple: acct(1), Write: true}, {Tuple: acct(2), Write: true}})
	// T1: UPDATE ... WHERE bal < 100k: writes 1 (80k), 2 (60k), 4 (29k), 5 (12k).
	tr.Add([]workload.Access{
		{Tuple: acct(1), Write: true}, {Tuple: acct(2), Write: true},
		{Tuple: acct(4), Write: true}, {Tuple: acct(5), Write: true},
	})
	// T2: SELECT WHERE id IN {1,3} (aborted, but still traced): reads 1, 3.
	tr.Add([]workload.Access{{Tuple: acct(1)}, {Tuple: acct(3)}})
	// T3: UPDATE id=2; SELECT id=5.
	tr.Add([]workload.Access{{Tuple: acct(2), Write: true}, {Tuple: acct(5)}})
	return tr
}

func TestBuildBasicGraph(t *testing.T) {
	g := mustBuild(Build(bankTrace(), Options{}))
	if got := g.NumNodes(); got != 5 {
		t.Fatalf("NumNodes = %d, want 5 (one per tuple)", got)
	}
	if err := g.CSR.Validate(); err != nil {
		t.Fatalf("invalid CSR: %v", err)
	}
	// Edge {1,2} is co-accessed by T0 and T1 -> weight 2.
	n1 := groupOf(g, workload.TupleID{Table: "account", Key: 1})
	n2 := groupOf(g, workload.TupleID{Table: "account", Key: 2})
	w := edgeWeightBetween(g.CSR, g.groupBase[n1], g.groupBase[n2])
	if w != 2 {
		t.Errorf("edge weight(1,2) = %d, want 2", w)
	}
}

func edgeWeightBetween(g *metis.Graph, u, v int32) int32 {
	for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
		if g.Adj[j] == v {
			return csrWeights(g)[j]
		}
	}
	return 0
}

func TestBuildReplicationStar(t *testing.T) {
	g := mustBuild(Build(bankTrace(), Options{Replication: true}))
	// Tuple 1 is accessed by three transactions (T0, T1, T2) and written by
	// two (T0, T1): it must explode into 3 replicas + 1 centre, and the
	// replication edges must weigh 2 (Fig. 3).
	id1 := workload.TupleID{Table: "account", Key: 1}
	gi := groupOf(g, id1)
	if !g.isExploded(gi) {
		t.Fatal("tuple 1 was not exploded")
	}
	if got := g.numReplicas(gi); got != 3 {
		t.Fatalf("tuple 1 replicas = %d, want 3", got)
	}
	base := g.groupBase[gi]
	if !g.Nodes[base].Center {
		t.Fatal("groupBase must be the centre node")
	}
	for ri := int32(1); ri <= 3; ri++ {
		if w := edgeWeightBetween(g.CSR, base, base+ri); w != 2 {
			t.Errorf("replication edge weight = %d, want 2", w)
		}
	}
	// Tuple 3 is accessed by exactly one transaction: never exploded.
	id3 := workload.TupleID{Table: "account", Key: 3}
	if g.isExploded(groupOf(g, id3)) {
		t.Error("tuple 3 should not be exploded")
	}
	if err := g.CSR.Validate(); err != nil {
		t.Fatalf("invalid CSR: %v", err)
	}
}

func TestAssignmentsWithoutReplication(t *testing.T) {
	g := mustBuild(Build(bankTrace(), Options{}))
	parts, _, err := g.Partition(2, metis.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	asg := g.DenseAssignments(parts)
	if len(asg) != 5 {
		t.Fatalf("assignments cover %d tuples, want 5", len(asg))
	}
	for d, ps := range asg {
		if len(ps) != 1 {
			t.Errorf("%v assigned to %v; want exactly one partition without replication", g.Intern.TupleOf(int32(d)), ps)
		}
	}
}

func TestAssignmentsWithReplication(t *testing.T) {
	// Build a workload where one read-only tuple is shared by every
	// transaction while two disjoint clusters are frequently co-written:
	// the partitioner should replicate the shared tuple.
	tid := func(k int64) workload.TupleID { return workload.TupleID{Table: "t", Key: k} }
	tr := workload.NewTrace()
	for i := 0; i < 40; i++ {
		cluster := int64(100)
		if i%2 == 1 {
			cluster = 200
		}
		tr.Add([]workload.Access{
			{Tuple: tid(0)}, // hot read-only tuple
			{Tuple: tid(cluster), Write: true},
			{Tuple: tid(cluster + 1), Write: true},
		})
	}
	g := mustBuild(Build(tr, Options{Replication: true}))
	parts, _, err := g.Partition(2, metis.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	asg := g.DenseAssignments(parts)
	if got := len(asg[denseOf(g, tid(0))]); got != 2 {
		t.Errorf("shared read-only tuple replicated to %d partitions, want 2", got)
	}
	// The write clusters must not be split or replicated.
	for _, k := range []int64{100, 101, 200, 201} {
		if got := len(asg[denseOf(g, tid(k))]); got != 1 {
			t.Errorf("written tuple %d in %d partitions, want 1", k, got)
		}
	}
	if asg[denseOf(g, tid(100))][0] == asg[denseOf(g, tid(200))][0] {
		t.Error("the two write clusters should land on different partitions")
	}
}

func TestCoalescing(t *testing.T) {
	tid := func(k int64) workload.TupleID { return workload.TupleID{Table: "t", Key: k} }
	tr := workload.NewTrace()
	// Tuples 1 and 2 are always accessed together with identical modes.
	for i := 0; i < 10; i++ {
		tr.Add([]workload.Access{
			{Tuple: tid(1)}, {Tuple: tid(2)},
			{Tuple: tid(int64(10 + i)), Write: true},
		})
	}
	g := mustBuild(Build(tr, Options{Coalesce: true}))
	g1, g2 := groupOf(g, tid(1)), groupOf(g, tid(2))
	if g1 != g2 {
		t.Error("tuples 1 and 2 should coalesce into one group")
	}
	// A read and a write of the same pair must NOT coalesce with different
	// modes: add a txn that writes tuple 1 only.
	tr2 := workload.NewTrace()
	for i := 0; i < 3; i++ {
		tr2.Add([]workload.Access{{Tuple: tid(1)}, {Tuple: tid(2)}})
	}
	tr2.Add([]workload.Access{{Tuple: tid(1), Write: true}, {Tuple: tid(2)}})
	gg := mustBuild(Build(tr2, Options{Coalesce: true}))
	if groupOf(gg, tid(1)) == groupOf(gg, tid(2)) {
		t.Error("different write patterns must prevent coalescing")
	}
	if err := g.CSR.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingReducesNodes(t *testing.T) {
	tid := func(k int64) workload.TupleID { return workload.TupleID{Table: "t", Key: k} }
	tr := workload.NewTrace()
	for i := 0; i < 20; i++ {
		// Every txn touches the same 5-tuple block plus one unique tuple.
		acc := []workload.Access{{Tuple: tid(int64(1000 + i)), Write: true}}
		for j := int64(0); j < 5; j++ {
			acc = append(acc, workload.Access{Tuple: tid(j)})
		}
		tr.Add(acc)
	}
	plain := mustBuild(Build(tr, Options{}))
	coal := mustBuild(Build(tr, Options{Coalesce: true}))
	if coal.NumNodes() >= plain.NumNodes() {
		t.Errorf("coalescing did not shrink graph: %d -> %d", plain.NumNodes(), coal.NumNodes())
	}
	// The coalesced block must map all five tuples to one group.
	g0 := groupOf(coal, tid(0))
	for j := int64(1); j < 5; j++ {
		if groupOf(coal, tid(j)) != g0 {
			t.Errorf("tuple %d not coalesced with block", j)
		}
	}
}

// TestHeuristicFilters: transaction sampling, the §5.1 filter Build
// applies, keeps roughly its share of the trace.
func TestHeuristicFilters(t *testing.T) {
	tid := func(k int64) workload.TupleID { return workload.TupleID{Table: "t", Key: k} }
	tr := workload.NewTrace()
	for i := int64(0); i < 50; i++ {
		tr.Add([]workload.Access{{Tuple: tid(i % 10)}, {Tuple: tid(i%10 + 1), Write: true}})
	}
	g := mustBuild(Build(tr, Options{TxnSampleRate: 0.5, Seed: 1}))
	if n := g.Compact.NumTxns(); n >= 50 || n == 0 {
		t.Errorf("txn sampling kept %d txns, want roughly half", n)
	}
}

func TestWorkloadWeights(t *testing.T) {
	tid := func(k int64) workload.TupleID { return workload.TupleID{Table: "t", Key: k} }
	tr := workload.NewTrace()
	// Tuple 1 accessed by 3 txns, tuple 2 by 1.
	tr.Add([]workload.Access{{Tuple: tid(1)}, {Tuple: tid(2)}})
	tr.Add([]workload.Access{{Tuple: tid(1)}, {Tuple: tid(3)}})
	tr.Add([]workload.Access{{Tuple: tid(1)}, {Tuple: tid(4)}})
	g := mustBuild(Build(tr, Options{}))
	n1 := g.groupBase[groupOf(g, tid(1))]
	if w := g.CSR.NWgt[n1]; w != 3 {
		t.Errorf("workload weight of hot tuple = %d, want 3", w)
	}
}

package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"schism/internal/metis"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// referenceBuild is the original single-threaded, map-based graph builder,
// kept verbatim (modulo packaging) as the semantic reference for the
// interned, epoch-stamped, parallel Build. It returns everything the
// differential test compares.
type refGraph struct {
	csr         *metis.Graph
	nodes       []Node
	groupTuples [][]workload.TupleID
	tupleGroup  map[workload.TupleID]int32
	groupBase   []int32
}

type refAccess struct {
	txns   []int32
	writes map[int32]bool
}

func refSignatureKey(ga *refAccess) string {
	buf := make([]byte, 0, len(ga.txns)*6)
	for _, ti := range ga.txns {
		buf = append(buf, byte(ti), byte(ti>>8), byte(ti>>16), byte(ti>>24))
		if ga.writes[ti] {
			buf = append(buf, 'w')
		} else {
			buf = append(buf, 'r')
		}
	}
	return string(buf)
}

// referenceBuild takes transaction sampling from the workload package,
// which pins it to its trace-space oracle, and builds from the expanded
// result.
func referenceBuild(tr *workload.Trace, opts Options) *refGraph {
	c := workload.CompactTrace(tr)
	if opts.TxnSampleRate > 0 && opts.TxnSampleRate < 1 {
		c = workload.SampleTxns(c, opts.TxnSampleRate, rand.New(rand.NewSource(opts.Seed)))
	}
	tr = expand(c)

	g := &refGraph{tupleGroup: make(map[workload.TupleID]int32)}

	type tupleSig struct {
		tuples []workload.TupleID
		access *refAccess
	}
	sigOf := make(map[workload.TupleID]*refAccess)
	for ti, t := range tr.Txns {
		seenHere := make(map[workload.TupleID]bool)
		for _, a := range t.Accesses {
			ga := sigOf[a.Tuple]
			if ga == nil {
				ga = &refAccess{writes: make(map[int32]bool)}
				sigOf[a.Tuple] = ga
			}
			if !seenHere[a.Tuple] {
				seenHere[a.Tuple] = true
				ga.txns = append(ga.txns, int32(ti))
			}
			if a.Write {
				ga.writes[int32(ti)] = true
			}
		}
	}
	var groups []*tupleSig
	if opts.Coalesce {
		bySig := make(map[string]int)
		for _, t := range tr.Txns {
			for _, a := range t.Accesses {
				id := a.Tuple
				if _, done := g.tupleGroup[id]; done {
					continue
				}
				key := refSignatureKey(sigOf[id])
				gi, ok := bySig[key]
				if !ok {
					gi = len(groups)
					bySig[key] = gi
					groups = append(groups, &tupleSig{access: sigOf[id]})
				}
				groups[gi].tuples = append(groups[gi].tuples, id)
				g.tupleGroup[id] = int32(gi)
			}
		}
	} else {
		for _, t := range tr.Txns {
			for _, a := range t.Accesses {
				id := a.Tuple
				if _, done := g.tupleGroup[id]; done {
					continue
				}
				g.tupleGroup[id] = int32(len(groups))
				groups = append(groups, &tupleSig{tuples: []workload.TupleID{id}, access: sigOf[id]})
			}
		}
	}
	g.groupTuples = make([][]workload.TupleID, len(groups))
	for i, grp := range groups {
		g.groupTuples[i] = grp.tuples
	}

	g.groupBase = make([]int32, len(groups))
	groupTxnNode := make([]map[int32]int32, len(groups))
	var numNodes int32
	for gi, grp := range groups {
		g.groupBase[gi] = numNodes
		if opts.Replication && len(grp.access.txns) >= 2 {
			m := make(map[int32]int32, len(grp.access.txns))
			for ri, ti := range grp.access.txns {
				m[ti] = numNodes + 1 + int32(ri)
			}
			groupTxnNode[gi] = m
			numNodes += int32(len(grp.access.txns)) + 1
		} else {
			numNodes++
		}
	}

	g.nodes = make([]Node, numNodes)
	nwgt := make([]int64, numNodes)
	for gi, grp := range groups {
		base := g.groupBase[gi]
		if groupTxnNode[gi] != nil {
			g.nodes[base] = Node{Group: int32(gi), Center: true, Txn: -1}
			nwgt[base] = 0
			for ri, ti := range grp.access.txns {
				node := base + 1 + int32(ri)
				g.nodes[node] = Node{Group: int32(gi), Txn: ti}
				nwgt[node] = int64(len(grp.tuples))
			}
		} else {
			g.nodes[base] = Node{Group: int32(gi), Txn: -1}
			nwgt[base] = int64(len(grp.access.txns)) * int64(len(grp.tuples))
		}
	}

	var edges []metis.BuilderEdge
	nodeFor := func(gi int32, ti int32) int32 {
		if m := groupTxnNode[gi]; m != nil {
			return m[ti]
		}
		return g.groupBase[gi]
	}
	for ti, t := range tr.Txns {
		var members []int32
		seen := make(map[int32]bool)
		for _, a := range t.Accesses {
			gi := g.tupleGroup[a.Tuple]
			if !seen[gi] {
				seen[gi] = true
				members = append(members, gi)
			}
		}
		if len(members) < 2 {
			continue
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				edges = append(edges, metis.BuilderEdge{
					U: nodeFor(members[i], int32(ti)), V: nodeFor(members[j], int32(ti)), Weight: 1,
				})
			}
		}
	}
	for gi, grp := range groups {
		m := groupTxnNode[gi]
		if m == nil {
			continue
		}
		updates := int64(len(grp.access.writes))
		base := g.groupBase[gi]
		for ri := range grp.access.txns {
			edges = append(edges, metis.BuilderEdge{U: base, V: base + 1 + int32(ri), Weight: updates})
		}
	}
	csr, err := metis.NewGraph(int(numNodes), edges, nwgt)
	if err != nil {
		panic(err)
	}
	g.csr = csr
	return g
}

// expand rebuilds the transactions of a compact trace: the trace-space
// twin of a compact-only one.
func expand(c *workload.Compact) *workload.Trace {
	tr := workload.NewTrace()
	for ti := 0; ti < c.NumTxns(); ti++ {
		accs := make([]workload.Access, 0, len(c.Txn(ti)))
		for _, e := range c.Txn(ti) {
			accs = append(accs, workload.Access{Tuple: c.In.TupleOf(int32(e &^ workload.WriteBit)), Write: e&workload.WriteBit != 0})
		}
		tr.Add(accs)
	}
	return tr
}

// groupTuples resolves every group's members to their tuples.
func groupTuples(g *Graph) [][]workload.TupleID {
	out := make([][]workload.TupleID, len(g.MemberOff)-1)
	for gi := range out {
		for _, d := range g.GroupMembers(int32(gi)) {
			out[gi] = append(out[gi], g.Intern.TupleOf(d))
		}
	}
	return out
}

// randomTrace synthesises a trace with hot/cold tuples across several
// tables, duplicate accesses inside transactions, and mixed read/write
// patterns — the shapes that stress deduplication, coalescing, and
// replication explosion.
func randomTrace(rng *rand.Rand, txns int) *workload.Trace {
	tables := []string{"alpha", "beta", "gamma"}
	tr := workload.NewTrace()
	for i := 0; i < txns; i++ {
		n := 1 + rng.Intn(10)
		var acc []workload.Access
		for j := 0; j < n; j++ {
			var key int64
			if rng.Intn(3) == 0 {
				key = int64(rng.Intn(5)) // hot region: heavy co-access
			} else {
				key = int64(rng.Intn(200))
			}
			acc = append(acc, workload.Access{
				Tuple: workload.TupleID{Table: tables[rng.Intn(len(tables))], Key: key},
				Write: rng.Intn(4) == 0,
			})
		}
		tr.Add(acc)
	}
	return tr
}

// shapedTraces returns the generated traces the differential tests run
// over besides randomTrace: TPC-C (transactions of tens of tuples sharing
// hot warehouse/district/item rows), YCSB-E (overlapping scans, so pairs
// co-occur in many transactions) and YCSB-A (one tuple per transaction:
// no transaction has two distinct nodes).
func shapedTraces() map[string]*workload.Trace {
	return map[string]*workload.Trace{
		"random": randomTrace(rand.New(rand.NewSource(21)), 300),
		"tpcc": workloads.TPCC(workloads.TPCCConfig{
			Warehouses: 2, Customers: 10, Items: 40, InitialOrders: 3, Txns: 250, Seed: 4,
		}).Trace,
		"ycsb-e": workloads.YCSBE(workloads.YCSBConfig{Rows: 400, Txns: 200, MaxScan: 12, Seed: 4}).Trace,
		"ycsb-a": workloads.YCSBA(workloads.YCSBConfig{Rows: 150, Txns: 200, Seed: 4}).Trace,
	}
}

// optsMatrix is replication on/off × coalescing on/off × the whole trace
// or a transaction sample of it (a renumbered Compact).
func optsMatrix() []Options {
	var out []Options
	for _, repl := range []bool{false, true} {
		for _, coal := range []bool{false, true} {
			for _, rate := range []float64{0, 0.6} {
				out = append(out, Options{Replication: repl, Coalesce: coal, TxnSampleRate: rate, Seed: 3})
			}
		}
	}
	return out
}

// edgeListCSR rebuilds g's CSR the way Build did before the row writer:
// enumerate every transaction's clique edges and every replication
// edge over g's node layout, and let metis.NewGraph sort and fold them.
func edgeListCSR(g *Graph) *metis.Graph {
	var edges []metis.BuilderEdge
	seen := make(map[int32]bool)
	for ti := 0; ti < g.Compact.NumTxns(); ti++ {
		clear(seen)
		var nodes []int32
		for _, e := range g.Compact.Txn(ti) {
			gi := g.GroupOf[e&^workload.WriteBit]
			if !seen[gi] {
				seen[gi] = true
				nodes = append(nodes, g.nodeFor(gi, int32(ti)))
			}
		}
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				edges = append(edges, metis.BuilderEdge{U: nodes[i], V: nodes[j], Weight: 1})
			}
		}
	}
	for gi := range g.groupBase {
		if !g.exploded[gi] {
			continue
		}
		updates, _ := g.replWeights(int32(gi))
		for ri := int32(0); ri < g.accCount[gi]; ri++ {
			edges = append(edges, metis.BuilderEdge{U: g.groupBase[gi], V: g.groupBase[gi] + 1 + ri, Weight: updates})
		}
	}
	csr, err := metis.NewGraph(len(g.Nodes), edges, g.CSR.NWgt)
	if err != nil {
		panic(err)
	}
	return csr
}

// csrWeights returns a CSR's edge weights as int32 whichever form holds
// them; nil stays nil.
func csrWeights(g *metis.Graph) []int32 {
	if g.EWgt16 == nil {
		return g.EWgt
	}
	w := make([]int32, len(g.EWgt16))
	for j, x := range g.EWgt16 {
		w[j] = int32(x)
	}
	return w
}

// assertSameCSR compares all four CSR arrays with reflect.DeepEqual, so a
// nil array never passes for an empty one. The weights are compared by
// value, whichever width Build stored them at.
func assertSameCSR(t *testing.T, got, want *metis.Graph) {
	t.Helper()
	if !reflect.DeepEqual(got.XAdj, want.XAdj) {
		t.Fatal("XAdj mismatch")
	}
	if !reflect.DeepEqual(got.Adj, want.Adj) {
		t.Fatal("Adj mismatch")
	}
	if !reflect.DeepEqual(csrWeights(got), csrWeights(want)) {
		t.Fatal("EWgt mismatch")
	}
	if !reflect.DeepEqual(got.NWgt, want.NWgt) {
		t.Fatal("NWgt mismatch")
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("invalid CSR: %v", err)
	}
}

func assertMatchesReference(t *testing.T, g *Graph, ref *refGraph) {
	t.Helper()
	assertSameCSR(t, g.CSR, ref.csr)
	if !reflect.DeepEqual(g.Nodes, ref.nodes) {
		t.Fatal("Nodes mismatch")
	}
	if !reflect.DeepEqual(groupTuples(g), ref.groupTuples) {
		t.Fatal("group members mismatch")
	}
	if len(g.GroupOf) != len(ref.tupleGroup) {
		t.Fatalf("GroupOf covers %d tuples, reference %d", len(g.GroupOf), len(ref.tupleGroup))
	}
	for d, id := range g.Intern.Tuples() {
		if want, ok := ref.tupleGroup[id]; !ok || g.GroupOf[d] != want {
			t.Fatalf("tuple %v in group %d, reference %d (known %v)", id, g.GroupOf[d], want, ok)
		}
	}
	if !reflect.DeepEqual(g.groupBase, ref.groupBase) {
		t.Fatal("groupBase mismatch")
	}
}

// TestBuildMatchesReference cross-checks the rewritten builder against the
// original map-based builder over random and TPC-C/YCSB-shaped traces and
// the full option matrix: replication on/off × coalescing on/off × whole
// or sampled trace, plus two more sampling rates and seeds.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	matrix := append(optsMatrix(),
		Options{Replication: true, TxnSampleRate: 0.3, Seed: 9},
		Options{Replication: true, Coalesce: true, TxnSampleRate: 0.9, Seed: 4},
	)
	traces := shapedTraces()
	for trial := 0; trial < 4; trial++ {
		traces[fmt.Sprintf("trial%d", trial)] = randomTrace(rng, 60+trial*40)
	}
	for name, tr := range traces {
		for oi, opts := range matrix {
			t.Run(fmt.Sprintf("%s/opts%d", name, oi), func(t *testing.T) {
				assertMatchesReference(t, mustBuild(Build(tr, opts)), referenceBuild(tr, opts))
			})
		}
	}
}

// TestBuildDeterministicAcrossWorkers pins the tentpole guarantee: every
// CSR row has one writer, so the graph is byte-identical at any worker
// count — and equal to the edge-list assembly the row writer replaced.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	defer func(old int) { maxWorkers = old }(maxWorkers)
	for name, tr := range shapedTraces() {
		for oi, opts := range optsMatrix() {
			t.Run(fmt.Sprintf("%s/opts%d", name, oi), func(t *testing.T) {
				maxWorkers = 1
				base := mustBuild(Build(tr, opts))
				assertSameCSR(t, base.CSR, edgeListCSR(base))
				for _, w := range []int{2, 3, 8, 64} {
					maxWorkers = w
					g := mustBuild(Build(tr, opts))
					assertSameCSR(t, g.CSR, base.CSR)
					if !reflect.DeepEqual(g.Nodes, base.Nodes) {
						t.Fatalf("nodes differ at %d workers", w)
					}
				}
			})
		}
	}
}

// referenceAssignments derives per-tuple replica sets straight from the
// node provenance: the distinct partitions of every non-centre node of the
// tuple's group, sorted.
func referenceAssignments(g *Graph, parts []int32) map[workload.TupleID][]int {
	groupParts := make(map[int32]map[int]bool)
	for v, n := range g.Nodes {
		if n.Center {
			continue
		}
		if groupParts[n.Group] == nil {
			groupParts[n.Group] = make(map[int]bool)
		}
		groupParts[n.Group][int(parts[v])] = true
	}
	out := make(map[workload.TupleID][]int)
	for gi, tuples := range groupTuples(g) {
		var set []int
		for p := range groupParts[int32(gi)] {
			set = append(set, p)
		}
		sort.Ints(set)
		for _, id := range tuples {
			out[id] = set
		}
	}
	return out
}

// TestDenseAssignmentsMatchesMap checks the dense replica-set view against
// the map-keyed reference above.
func TestDenseAssignmentsMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tr := randomTrace(rng, 200)
	g := mustBuild(Build(tr, Options{Replication: true, Seed: 2}))
	parts, _, err := g.Partition(3, metis.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	asg := referenceAssignments(g, parts)
	dense := g.DenseAssignments(parts)
	if len(dense) != g.Intern.Len() {
		t.Fatalf("dense len %d != interned %d", len(dense), g.Intern.Len())
	}
	for d, set := range dense {
		id := g.Intern.TupleOf(int32(d))
		if !reflect.DeepEqual(asg[id], set) {
			t.Fatalf("tuple %v: dense %v != map %v", id, set, asg[id])
		}
	}
	// The aligned view over the same trace must agree tuple-for-tuple.
	c := workload.CompactTrace(tr)
	aligned := g.DenseAssignmentsFor(c, parts)
	for d, set := range aligned {
		id := c.In.TupleOf(int32(d))
		if !reflect.DeepEqual(asg[id], set) {
			t.Fatalf("aligned tuple %v: %v != %v", id, set, asg[id])
		}
	}
}

package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"schism/internal/metis"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// traceOf builds a read-only trace over table "t" from per-transaction key
// lists; a negative key is a write of its absolute value.
func traceOf(txns ...[]int64) *workload.Trace {
	tr := workload.NewTrace()
	for _, keys := range txns {
		acc := make([]workload.Access, len(keys))
		for i, k := range keys {
			acc[i] = workload.Access{Tuple: workload.TupleID{Table: "t", Key: max(k, -k)}, Write: k < 0}
		}
		tr.Add(acc)
	}
	return tr
}

// TestBuildRowsMatchEdgeList walks the row writer through the shapes its
// cases were written for, at one worker and at eight, against the
// edge-list assembly it replaced.
func TestBuildRowsMatchEdgeList(t *testing.T) {
	defer func(old int) { maxWorkers = old }(maxWorkers)
	node := func(g *Graph, key int64) int32 {
		return g.groupBase[groupOf(g, workload.TupleID{Table: "t", Key: key})]
	}
	for _, tc := range []struct {
		name  string
		trace *workload.Trace
		opts  Options
		check func(t *testing.T, g *Graph)
	}{
		{
			// Tuple 2 is a plain node in three transactions and {1,2}
			// co-occurs twice: node 1's row folds, so every later row moves
			// left in the compaction pass. Two transactions have fewer than
			// two distinct nodes and give no edge.
			name:  "fold-and-compact",
			trace: traceOf([]int64{1, 2, 3}, []int64{1, 2}, []int64{2, 4}, []int64{5}, []int64{6, 6}),
			check: func(t *testing.T, g *Graph) {
				if w := edgeWeightBetween(g.CSR, node(g, 1), node(g, 2)); w != 2 {
					t.Errorf("weight(1,2) = %d, want 2", w)
				}
				// 10 raw directed entries fold to 8.
				if got := len(g.CSR.Adj); got != 8 {
					t.Errorf("len(Adj) = %d, want 8", got)
				}
				for _, k := range []int64{5, 6} {
					if v := node(g, k); g.CSR.XAdj[v] != g.CSR.XAdj[v+1] {
						t.Errorf("tuple %d has neighbours", k)
					}
				}
			},
		},
		{
			// Tuple 7 is exploded, yet neither of its transactions has a
			// second node: each replica's row is its centre alone.
			name:  "replica-with-centre-only",
			trace: traceOf([]int64{-7}, []int64{7}),
			opts:  Options{Replication: true},
			check: func(t *testing.T, g *Graph) {
				centre := node(g, 7)
				for ri := int32(1); ri <= 2; ri++ {
					if deg := g.CSR.XAdj[centre+ri+1] - g.CSR.XAdj[centre+ri]; deg != 1 {
						t.Errorf("replica %d degree = %d, want 1", ri, deg)
					}
					if w := edgeWeightBetween(g.CSR, centre+ri, centre); w != 1 {
						t.Errorf("replication edge weight = %d, want 1 update", w)
					}
				}
			},
		},
		{
			name:  "empty",
			trace: workload.NewTrace(),
			opts:  Options{Replication: true},
			check: func(t *testing.T, g *Graph) {
				if g.NumNodes() != 0 || g.NumEdges() != 0 {
					t.Errorf("empty trace built %d nodes, %d edges", g.NumNodes(), g.NumEdges())
				}
			},
		},
	} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				maxWorkers = workers
				g := mustBuild(Build(tc.trace, tc.opts))
				assertSameCSR(t, g.CSR, edgeListCSR(g))
				tc.check(t, g)
			})
		}
	}

	// The generated shapes fold too: overlapping YCSB-E scans repeat pairs.
	g := mustBuild(Build(shapedTraces()["ycsb-e"], Options{}))
	heavy := false
	for _, w := range csrWeights(g.CSR) {
		heavy = heavy || w > 1
	}
	if !heavy {
		t.Error("no folded edge in the no-replication YCSB-E graph")
	}
}

// TestEdgeWeightOverflowGuard drives a replication star past the int32
// edge-weight limit at its real value. Every transaction writes tuple 0
// and reads tuple 1, so both are exploded: tuple 0's star has 2N entries
// of weight N (its update count), tuple 1's weigh 0, and the N replica
// pairs add 2N entries of weight 1 — 2N² + 2N in all, which fits int32 at
// N = 32767 and not at 32768. Build must count it exactly, before
// allocating the CSR; BuildHyper, whose net weights are int64, takes both.
func TestEdgeWeightOverflowGuard(t *testing.T) {
	hot := func(n int) *workload.Trace {
		tr := workload.NewTrace()
		for i := 0; i < n; i++ {
			tr.Add([]workload.Access{
				{Tuple: workload.TupleID{Table: "t", Key: 0}, Write: true},
				{Tuple: workload.TupleID{Table: "t", Key: 1}},
			})
		}
		return tr
	}
	opts := Options{Replication: true}
	const fits = 32767
	g, err := Build(hot(fits), opts)
	if err != nil {
		t.Fatalf("Build at total weight 2N²+2N = %d: %v", 2*fits*fits+2*fits, err)
	}
	var total int64
	for _, w := range csrWeights(g.CSR) {
		total += int64(w)
	}
	if want := int64(2*fits*fits + 2*fits); total != want {
		t.Fatalf("built total weight %d, want %d", total, want)
	}
	tr := hot(fits + 1)
	if _, err := Build(tr, opts); !errors.Is(err, metis.ErrTooLarge) {
		t.Fatalf("Build one transaction past the limit: err = %v, want ErrTooLarge", err)
	}
	if _, err := BuildHyper(tr, opts); err != nil {
		t.Fatalf("BuildHyper on the same trace: %v", err)
	}
}

// TestBuildWeightWidth pins the CSR weights' width: two bytes whenever
// every weight fits, and int32 as soon as one pair's multiplicity does
// not — here 65 536 transactions co-access one pair, without replication
// so that the pair folds into a single plain edge.
func TestBuildWeightWidth(t *testing.T) {
	pair := func(n int) *workload.Trace {
		tr := workload.NewTrace()
		for i := 0; i < n; i++ {
			tr.Add([]workload.Access{
				{Tuple: workload.TupleID{Table: "t", Key: 0}, Write: true},
				{Tuple: workload.TupleID{Table: "t", Key: 1}},
			})
		}
		return tr
	}
	for _, tc := range []struct {
		n    int
		wide bool
	}{{math.MaxUint16, false}, {math.MaxUint16 + 1, true}} {
		g := mustBuild(Build(pair(tc.n), Options{}))
		if wide := g.CSR.EWgt != nil; wide != tc.wide || (g.CSR.EWgt16 != nil) == wide {
			t.Fatalf("%d transactions: EWgt set %v, EWgt16 set %v; want int32 weights %v",
				tc.n, g.CSR.EWgt != nil, g.CSR.EWgt16 != nil, tc.wide)
		}
		if got := csrWeights(g.CSR); !slices.Equal(got, []int32{int32(tc.n), int32(tc.n)}) {
			t.Fatalf("%d transactions: weights %v, want both %d", tc.n, got, tc.n)
		}
	}
}

// TestBuildByteBudget fails if Build goes back to materialising edges
// before the CSR, or to 32- or 64-bit weights on a graph whose weights
// fit two bytes. The CSR itself is 6 B per directed adjacency entry
// (int32 neighbour + uint16 weight; 8 B with int32 weights, 12 B with the
// int64 weights it had before); the old edge list, packed keys and
// counting-sort temporaries cost 24 B per entry on top (287 MB against 99
// MB on this trace). Everything else Build allocates — interned trace,
// accessor lists, node table, member lists, XAdj — is linear in accesses
// and nodes, about 24 B per access-or-node here (6.4 B per entry in all;
// 8.4 B with int32 weights, which the budget of 7 rejects).
func TestBuildByteBudget(t *testing.T) {
	tr := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 4, Customers: 10, Items: 200, InitialOrders: 3, Txns: 2000, Seed: 5,
	}).Trace
	accesses := 0
	for _, txn := range tr.Txns {
		accesses += len(txn.Accesses)
	}
	opts := Options{Replication: true, Seed: 3}
	var g *Graph
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g = mustBuild(Build(tr, opts))
		}
	})
	entries := int64(len(g.CSR.Adj))
	budget := 7*entries + 64*int64(accesses+g.NumNodes())
	if got := res.AllocedBytesPerOp(); got > budget {
		t.Errorf("Build allocated %d B for %d adjacency entries, %d accesses, %d nodes; budget %d",
			got, entries, accesses, g.NumNodes(), budget)
	}
	// The allocation count does not grow with the graph: the edge-list
	// builder made 287 on this trace, the row writer makes 33.
	if got := res.AllocsPerOp(); got > 300 {
		t.Errorf("Build made %d allocations, want <= 300", got)
	}
	t.Logf("%d B/op, %d allocs/op, %d entries, %d accesses, %d nodes",
		res.AllocedBytesPerOp(), res.AllocsPerOp(), entries, accesses, g.NumNodes())
}

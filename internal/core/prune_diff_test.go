package core

// Differential test for pruneWriteReplicas: the interner-based pass must
// demote exactly the tuples, to exactly the homes, that the map-keyed
// reference below does — also when the training trace holds tuples the
// graph never saw.

import (
	"math/rand"
	"reflect"
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// referencePruneWriteReplicas keys every table by TupleID, one map entry
// per candidate and one vote map per candidate.
func referencePruneWriteReplicas(train *workload.Trace, tuples []workload.TupleID, dense [][]int, maxWriteFrac float64) int {
	type stat struct {
		reads, writes int
		votes         map[int]int
	}
	cand := make(map[workload.TupleID]*stat)
	for d, parts := range dense {
		if len(parts) > 1 {
			cand[tuples[d]] = &stat{}
		}
	}
	if len(cand) == 0 {
		return 0
	}
	byID := make(map[workload.TupleID]int, len(tuples))
	for d, id := range tuples {
		byID[id] = d
	}
	var hist []int
	for _, tx := range train.Txns {
		hist = hist[:0]
		for _, a := range tx.Accesses {
			d, ok := byID[a.Tuple]
			if !ok || len(dense[d]) != 1 {
				continue
			}
			p := dense[d][0]
			for len(hist) <= p {
				hist = append(hist, 0)
			}
			hist[p]++
		}
		home, best := -1, 0
		for p, n := range hist {
			if n > best {
				home, best = p, n
			}
		}
		for _, a := range tx.Accesses {
			st, ok := cand[a.Tuple]
			if !ok {
				continue
			}
			if a.Write {
				st.writes++
			} else {
				st.reads++
			}
			if home >= 0 {
				if st.votes == nil {
					st.votes = make(map[int]int)
				}
				st.votes[home]++
			}
		}
	}
	pruned := 0
	for d, parts := range dense {
		st, ok := cand[tuples[d]]
		if !ok {
			continue
		}
		total := st.reads + st.writes
		if total == 0 || float64(st.writes)/float64(total) <= maxWriteFrac {
			continue
		}
		home, best := parts[0], -1
		for _, p := range parts {
			if v := st.votes[p]; v > best {
				home, best = p, v
			}
		}
		dense[d] = []int{home}
		pruned++
	}
	return pruned
}

// writeHotTrace is a seeded random trace over clusters of tuples plus a
// few shared tuples every cluster both reads and writes — the tuples a
// balance-pressured cut replicates although they are write-hot.
func writeHotTrace(seed int64) *workload.Trace {
	rng := rand.New(rand.NewSource(seed))
	tid := func(k int64) workload.TupleID { return workload.TupleID{Table: "t", Key: k} }
	tr := workload.NewTrace()
	for i := 0; i < 1200; i++ {
		cluster := int64(rng.Intn(6))
		var acc []workload.Access
		for j := 0; j < 2+rng.Intn(4); j++ {
			acc = append(acc, workload.Access{Tuple: tid(1000*cluster + int64(rng.Intn(40))), Write: rng.Intn(4) == 0})
		}
		acc = append(acc, workload.Access{Tuple: tid(-1 - int64(rng.Intn(8))), Write: rng.Intn(2) == 0})
		tr.Add(acc)
	}
	return tr
}

func TestPruneWriteReplicasMatchesReference(t *testing.T) {
	tpcc := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 4, Customers: 20, Items: 120, InitialOrders: 8, Txns: cut(3000, 1500), Seed: 9,
	}).Trace
	epinions := workloads.Epinions(workloads.EpinionsConfig{
		Users: 200, Items: 100, Communities: 2, Txns: cut(1500, 800), Seed: 6,
	}).Trace
	for _, tc := range []struct {
		name  string
		trace *workload.Trace
		k     int
		gopts graph.Options
		// widen replicates a random third of the tuples by hand, so the
		// pass has write-hot candidates whatever the cut decided.
		widen bool
		// partial: sampling drops every transaction of some tuples, so
		// train holds tuples the graph never saw.
		partial bool
	}{
		{name: "tpcc", trace: tpcc, k: 4},
		{name: "tpcc-coalesced", trace: tpcc, k: 3, gopts: graph.Options{Coalesce: true}},
		{name: "tpcc-txn-sampled", trace: tpcc, k: 4, gopts: graph.Options{TxnSampleRate: 0.6}, partial: true},
		{name: "tpcc-coalesced-sampled", trace: tpcc, k: 4, gopts: graph.Options{Coalesce: true, TxnSampleRate: 0.3}, partial: true},
		{name: "epinions", trace: epinions, k: 2},
		{name: "write-hot", trace: writeHotTrace(11), k: 3, widen: true},
		{name: "write-hot-sampled", trace: writeHotTrace(12), k: 4, gopts: graph.Options{TxnSampleRate: 0.1}, widen: true, partial: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gopts := tc.gopts
			gopts.Replication = true
			gopts.Seed = 5
			g, err := graph.Build(tc.trace, gopts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.partial {
				unknown := 0
				for _, id := range workload.CompactTrace(tc.trace).In.Tuples() {
					if _, ok := g.Intern.Lookup(id); !ok {
						unknown++
					}
				}
				if unknown == 0 {
					t.Fatal("build kept every tuple: the Lookup-miss branch is not exercised")
				}
			}
			parts, _, err := g.Partition(tc.k, metis.Options{Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			got := g.DenseAssignments(parts)
			if tc.widen {
				rng := rand.New(rand.NewSource(7))
				for d := range got {
					if rng.Intn(3) == 0 {
						got[d] = []int{0, 1 + rng.Intn(tc.k-1)}
					}
				}
			}
			want := make([][]int, len(got))
			copy(want, got)

			wantN := referencePruneWriteReplicas(tc.trace, g.Intern.Tuples(), want, readMostlyWriteFrac)
			gotN := pruneWriteReplicas(tc.trace, g.Intern, got, tc.k)
			if gotN != wantN {
				t.Fatalf("pruned %d tuples, reference %d", gotN, wantN)
			}
			if tc.widen && gotN == 0 {
				t.Fatal("no write-hot replica was demoted: the case tests nothing")
			}
			for d := range got {
				if !reflect.DeepEqual(got[d], want[d]) {
					t.Fatalf("tuple %v: set %v, reference %v", g.Intern.TupleOf(int32(d)), got[d], want[d])
				}
			}
			// Equal sets share one slice after pruning too: a demoted
			// tuple takes its home's singleton, not a []int{home} of its
			// own.
			shared := map[int]*int{}
			for d, set := range got {
				if len(set) != 1 {
					continue
				}
				if first, ok := shared[set[0]]; !ok {
					shared[set[0]] = &set[0]
				} else if first != &set[0] {
					t.Fatalf("tuple %v: its set %v has its own array, not the one its equals share", g.Intern.TupleOf(int32(d)), set)
				}
			}
		})
	}
}

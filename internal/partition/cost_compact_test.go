package partition

import (
	"math/rand"
	"testing"

	"schism/internal/workload"
)

// accessSet returns the distinct tuples the transaction writes (write) or
// reads (!write); a read-modify-write counts in both sets.
func accessSet(t *workload.Txn, write bool) []workload.TupleID {
	seen := make(map[workload.TupleID]struct{})
	var out []workload.TupleID
	for _, a := range t.Accesses {
		if a.Write != write {
			continue
		}
		if _, ok := seen[a.Tuple]; !ok {
			seen[a.Tuple] = struct{}{}
			out = append(out, a.Tuple)
		}
	}
	return out
}

// txnDistributed is the map-keyed form of EvaluateCompact's test: it builds
// the transaction's write and read sets and decides from them whether the
// transaction must span >1 partition.
func txnDistributed(t *workload.Txn, locate func(workload.TupleID) []int) bool {
	writes := accessSet(t, true)
	reads := accessSet(t, false)

	// Partitions the transaction is forced to touch: every replica of
	// every written tuple.
	required := map[int]bool{}
	for _, id := range writes {
		for _, p := range locate(id) {
			required[p] = true
		}
	}
	if len(required) > 1 {
		return true
	}

	if len(required) == 1 {
		// The single required partition must also hold a replica of every
		// tuple the transaction reads.
		var home int
		for p := range required {
			home = p
		}
		for _, id := range reads {
			parts := locate(id)
			if len(parts) == 0 {
				continue
			}
			if !contains(parts, home) {
				return true
			}
		}
		return false
	}

	// Read-only (or all writes unconstrained): single-sited iff the
	// intersection of all non-empty replica sets is non-empty.
	var inter map[int]bool
	for _, id := range reads {
		parts := locate(id)
		if len(parts) == 0 {
			continue
		}
		if inter == nil {
			inter = map[int]bool{}
			for _, p := range parts {
				inter[p] = true
			}
			continue
		}
		for p := range inter {
			if !contains(parts, p) {
				delete(inter, p)
			}
		}
		if len(inter) == 0 {
			return true
		}
	}
	return false
}

// evaluateAssignmentsMap is the map-keyed evaluator, kept as the oracle
// for EvaluateAssignmentsCompact: unassigned tuples are unconstrained.
func evaluateAssignmentsMap(tr *workload.Trace, asg map[workload.TupleID][]int) Cost {
	locate := func(id workload.TupleID) []int { return asg[id] }
	c := Cost{Total: tr.Len()}
	for _, t := range tr.Txns {
		if txnDistributed(t, locate) {
			c.Distributed++
		}
	}
	return c
}

// mapStrategy places tuples by a map and leaves the rest unconstrained.
type mapStrategy struct {
	Strategy
	asg map[workload.TupleID][]int
}

func (m mapStrategy) Locate(id workload.TupleID, _ Row) []int { return m.asg[id] }

// evaluateDense interns the trace, aligns the map-keyed assignment with
// its dense ids and runs EvaluateAssignmentsCompact.
func evaluateDense(tr *workload.Trace, asg map[workload.TupleID][]int) Cost {
	c := workload.CompactTrace(tr)
	sets := make([][]int, c.NumTuples())
	for d, id := range c.In.Tuples() {
		if parts, ok := asg[id]; ok {
			sets[d] = parts
		}
	}
	return EvaluateAssignmentsCompact(c, sets)
}

// TestEvaluateAssignmentsCompactMatchesMap cross-checks the dense
// evaluator against the map-based one over random traces, assignments
// with replication and unassigned tuples.
func TestEvaluateAssignmentsCompactMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		tr := workload.NewTrace()
		for i := 0; i < 80; i++ {
			var acc []workload.Access
			for j := 0; j < 1+rng.Intn(6); j++ {
				acc = append(acc, workload.Access{
					Tuple: workload.TupleID{Table: "t", Key: int64(rng.Intn(40))},
					Write: rng.Intn(3) == 0,
				})
			}
			tr.Add(acc)
		}
		k := 2 + rng.Intn(3)
		asg := make(map[workload.TupleID][]int)
		for key := int64(0); key < 40; key++ {
			id := workload.TupleID{Table: "t", Key: key}
			switch rng.Intn(4) {
			case 0: // unassigned: unconstrained
			case 1: // replicated to several partitions
				n := 2 + rng.Intn(k-1)
				perm := rng.Perm(k)[:n]
				set := append([]int(nil), perm...)
				asg[id] = set
			default:
				asg[id] = []int{rng.Intn(k)}
			}
		}
		want := evaluateAssignmentsMap(tr, asg)
		if got := evaluateDense(tr, asg); got != want {
			t.Fatalf("trial %d: compact %+v != map %+v", trial, got, want)
		}
		// Evaluate reaches the same evaluator through a Strategy.
		if got := Evaluate(tr, mapStrategy{asg: asg}, nil); got != want {
			t.Fatalf("trial %d: Evaluate %+v != map %+v", trial, got, want)
		}
	}
}

// TestEvaluateCompactResolvesEachAccessOnce pins the contract callers fold
// their own accounting into: set is called exactly once per access, in
// trace order, whatever the transactions decide early.
func TestEvaluateCompactResolvesEachAccessOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := workload.NewTrace()
	for i := 0; i < 200; i++ {
		var acc []workload.Access
		for j := 0; j < 1+rng.Intn(8); j++ {
			acc = append(acc, workload.Access{
				Tuple: workload.TupleID{Table: "t", Key: int64(rng.Intn(30))},
				Write: rng.Intn(2) == 0,
			})
		}
		tr.Add(acc)
	}
	c := workload.CompactTrace(tr)
	var seen []uint32
	cost := EvaluateCompact(c, func(d int32) []int {
		seen = append(seen, uint32(d))
		return []int{int(d) % 3}
	})
	if len(seen) != len(c.Accs) {
		t.Fatalf("set called %d times for %d accesses", len(seen), len(c.Accs))
	}
	for i, e := range c.Accs {
		if seen[i] != e&^workload.WriteBit {
			t.Fatalf("call %d resolved tuple %d, access %d is tuple %d", i, seen[i], i, e&^workload.WriteBit)
		}
	}
	if cost.Distributed == 0 || cost.Distributed == cost.Total {
		t.Fatalf("%d of %d distributed: the trace decides nothing early", cost.Distributed, cost.Total)
	}
}

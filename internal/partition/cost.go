package partition

import (
	"schism/internal/workload"
)

// Cost summarises a strategy's behaviour on a trace.
type Cost struct {
	Total       int
	Distributed int
}

// DistributedFrac returns the fraction of distributed transactions, the
// paper's headline metric (Fig. 4).
func (c Cost) DistributedFrac() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Distributed) / float64(c.Total)
}

// Evaluate counts how many transactions in the trace would be distributed
// under the strategy (§4.4). The model is replica-aware, matching the
// router's behaviour (§5.4):
//
//   - every write must reach every replica of the written tuple, so the
//     transaction must touch the union of written tuples' replica sets;
//   - a read may be served by any replica, so reads prefer a partition the
//     transaction already needs.
//
// A transaction is single-sited iff one partition can serve all of it.
// A Strategy places every tuple; the empty sets EvaluateCompact treats as
// unconstrained come from raw assignments and from deployed tables that
// hold no entry. Evaluate is EvaluateEach with one candidate.
func Evaluate(tr *workload.Trace, s Strategy, resolve Resolver) Cost {
	return EvaluateEach(tr, []Strategy{s}, resolve)[0]
}

// EvaluateEach returns Evaluate(tr, s, resolve) for every candidate s, in
// order, from one pass over the trace's tuples: the trace is interned
// once and each distinct tuple resolved once and located by every
// candidate on that row.
func EvaluateEach(tr *workload.Trace, candidates []Strategy, resolve Resolver) []Cost {
	c := workload.CompactTrace(tr)
	sets := make([][][]int, len(candidates))
	for i := range sets {
		sets[i] = make([][]int, c.NumTuples())
	}
	for d, id := range c.In.Tuples() {
		var row Row
		if resolve != nil {
			row = resolve(id)
		}
		for i, s := range candidates {
			sets[i][d] = s.Locate(id, row)
		}
	}
	costs := make([]Cost, len(candidates))
	for i := range candidates {
		costs[i] = EvaluateAssignmentsCompact(c, sets[i])
	}
	return costs
}

func contains(parts []int, p int) bool {
	for _, q := range parts {
		if q == p {
			return true
		}
	}
	return false
}

// EvaluateAssignmentsCompact counts distributed transactions for a raw
// per-tuple assignment (the graph partitioner's direct output) over an
// interned trace: sets[d] is the replica set of dense tuple d in c's
// interner, and unassigned tuples (nil) are unconstrained: new tuples
// follow their transaction. This is the "schism" series in Fig. 4 before
// any explanation is attempted. Use graph.DenseAssignmentsFor to align a
// partitioning with the evaluation trace's interner.
func EvaluateAssignmentsCompact(c *workload.Compact, sets [][]int) Cost {
	return EvaluateCompact(c, func(d int32) []int { return sets[d] })
}

// EvaluateCompact is the evaluator every entry point shares: it counts
// the distributed transactions of an interned trace, resolving the
// replica set of dense tuple d through set(d) (empty means
// unconstrained). set is called exactly once per access, in trace order,
// so a caller can fold its own per-access accounting into it. The hot
// loop indexes no TupleID and its scratch is two partition lists, so the
// call allocates O(k), whatever the trace's size.
func EvaluateCompact(c *workload.Compact, set func(d int32) []int) Cost {
	cost := Cost{Total: c.NumTxns()}
	var s evalScratch
	for ti := 0; ti < c.NumTxns(); ti++ {
		if s.distributed(c.Txn(ti), set) {
			cost.Distributed++
		}
	}
	return cost
}

// evalScratch holds the partition lists reused across transactions.
type evalScratch struct {
	req   []int
	inter []int
}

// distributed decides whether a transaction, given as packed accesses,
// must span more than one partition, in one pass over its accesses:
//
//   - every write must reach every replica of the written tuple, so req
//     gathers the union of written tuples' replica sets;
//   - a read may be served by any replica, so inter narrows to the
//     partitions holding a replica of every (constrained) read tuple.
//
// The transaction is single-sited iff req has at most one partition and
// that partition — or, with no constrained write, some partition — is in
// every constrained read's set. Duplicate accesses need no deduplication:
// every step is idempotent.
func (s *evalScratch) distributed(accs []uint32, set func(d int32) []int) bool {
	req, inter := s.req[:0], s.inter[:0]
	reads := false // a constrained read was met; inter is its running intersection
	for _, e := range accs {
		parts := set(int32(e &^ workload.WriteBit))
		if e&workload.WriteBit != 0 {
			for _, p := range parts {
				if len(req) <= 1 && !contains(req, p) {
					req = append(req, p)
				}
			}
			continue
		}
		if len(parts) == 0 {
			continue
		}
		if !reads {
			inter = append(inter, parts...)
			reads = true
			continue
		}
		k := 0
		for _, p := range inter {
			if contains(parts, p) {
				inter[k] = p
				k++
			}
		}
		inter = inter[:k]
	}
	s.req, s.inter = req, inter
	switch {
	case len(req) > 1:
		return true
	case !reads:
		return false
	case len(req) == 1:
		return !contains(inter, req[0])
	default:
		return len(inter) == 0
	}
}

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
// Tuples whose replica set is empty are unconstrained — brand-new tuples a
// floating lookup strategy lets the transaction create at its home
// partition — and impose no requirement. The trace is interned once and
// every distinct tuple located once.
func Evaluate(tr *workload.Trace, s Strategy, resolve Resolver) Cost {
	c := workload.CompactTrace(tr)
	sets := make([][]int, c.NumTuples())
	for d, id := range c.In.Tuples() {
		var row Row
		if resolve != nil {
			row = resolve(id)
		}
		sets[d] = s.Locate(id, row)
	}
	return EvaluateAssignmentsCompact(c, sets, nil)
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
// interner, and unassigned tuples (nil) get the default replica set def
// (nil means unconstrained: new tuples follow their transaction). This
// is the "schism" series in Fig. 4 before any explanation is attempted.
// The hot loop indexes slices by dense id — no TupleID hashing, no
// per-transaction read/write-set allocation. Use
// graph.DenseAssignmentsFor to align a partitioning with the evaluation
// trace's interner.
func EvaluateAssignmentsCompact(c *workload.Compact, sets [][]int, def []int) Cost {
	cost := Cost{Total: c.NumTxns()}
	var scratch evalScratch
	for ti := 0; ti < c.NumTxns(); ti++ {
		if txnDistributedCompact(c.Txn(ti), sets, def, &scratch) {
			cost.Distributed++
		}
	}
	return cost
}

// evalScratch holds the small partition-set buffers reused across
// transactions by txnDistributedCompact.
type evalScratch struct {
	req   []int
	inter []int
}

// txnDistributedCompact decides whether a transaction, given as packed
// accesses, must span >1 partition. Duplicate accesses need no
// deduplication: every step is idempotent.
func txnDistributedCompact(accs []uint32, sets [][]int, def []int, s *evalScratch) bool {
	locate := func(e uint32) []int {
		if p := sets[e&^workload.WriteBit]; p != nil {
			return p
		}
		return def
	}
	// Partitions the transaction is forced to touch: every replica of
	// every written tuple.
	req := s.req[:0]
	for _, e := range accs {
		if e&workload.WriteBit == 0 {
			continue
		}
		for _, p := range locate(e) {
			if !contains(req, p) {
				req = append(req, p)
			}
		}
		if len(req) > 1 {
			s.req = req
			return true
		}
	}
	s.req = req

	if len(req) == 1 {
		// The single required partition must also hold a replica of every
		// tuple the transaction reads.
		home := req[0]
		for _, e := range accs {
			if e&workload.WriteBit != 0 {
				continue
			}
			parts := locate(e)
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
	inter := s.inter[:0]
	first := true
	for _, e := range accs {
		if e&workload.WriteBit != 0 {
			continue
		}
		parts := locate(e)
		if len(parts) == 0 {
			continue
		}
		if first {
			inter = append(inter, parts...)
			first = false
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
		if len(inter) == 0 {
			s.inter = inter
			return true
		}
	}
	s.inter = inter
	return false
}

package workload

import "math/rand"

// The §5.1 graph-size heuristics work on the interned form, Compact to
// Compact: a filtered trace is renumbered so that its ids run in order of
// first appearance among the accesses it keeps, which is exactly what
// interning the filtered transactions would assign. Filters that keep
// everything by definition (rate >= 1, minAccesses <= 1) return their
// input.

// SampleTxns keeps each transaction independently with probability rate
// (transaction-level sampling, §5.1), drawing once per transaction in
// trace order. The relative order of retained transactions is preserved.
func SampleTxns(c *Compact, rate float64, rng *rand.Rand) *Compact {
	if rate >= 1 {
		return c
	}
	return c.filter(func(int) bool { return rng.Float64() < rate }, nil, false)
}

// SampleTuples performs tuple-level sampling (§5.1): it selects each
// distinct tuple with probability rate, drawing when the trace first
// accesses it, and removes accesses to unselected tuples from every
// transaction. Transactions left with no accesses are dropped.
func SampleTuples(c *Compact, rate float64, rng *rand.Rand) *Compact {
	if rate >= 1 {
		return c
	}
	const undecided, keep, drop = 0, 1, 2
	decided := make([]uint8, c.NumTuples())
	return c.filter(nil, func(d uint32) bool {
		if decided[d] == undecided {
			decided[d] = drop
			if rng.Float64() < rate {
				decided[d] = keep
			}
		}
		return decided[d] == keep
	}, true)
}

// FilterBlanket removes "blanket statements" (§5.1): transactions whose
// access set exceeds maxTuples distinct tuples are dropped entirely. In
// the paper these are occasional scans that touch large portions of a
// table; they add many uninformative edges and parallelise well anyway.
func FilterBlanket(c *Compact, maxTuples int) *Compact {
	last := make([]int32, c.NumTuples())
	for i := range last {
		last[i] = -1
	}
	return c.filter(func(ti int) bool {
		n := 0
		for _, e := range c.Txn(ti) {
			if d := e &^ WriteBit; last[d] != int32(ti) {
				last[d] = int32(ti)
				n++
			}
		}
		return n <= maxTuples
	}, nil, false)
}

// FilterRelevance removes accesses to tuples accessed fewer than
// minAccesses times across the whole trace (§5.1), a transaction that
// both reads and writes a tuple counting twice. Rarely touched tuples
// carry little information for partitioning; they are later placed by
// the explanation predicates or replicated. Transactions left with no
// accesses are dropped.
func FilterRelevance(c *Compact, minAccesses int) *Compact {
	if minAccesses <= 1 {
		return c
	}
	stats := c.Stats()
	return c.filter(nil, func(d uint32) bool {
		return int(stats.Reads[d]+stats.Writes[d]) >= minAccesses
	}, true)
}

// filter returns the transactions keepTxn accepts (nil accepts all), each
// with the accesses whose dense tuple keepAcc accepts (nil accepts all),
// renumbered in first-appearance order. keepTxn is called once per
// transaction and keepAcc once per access of a kept transaction, both in
// trace order, so draws from a shared RNG happen in a fixed order.
// dropEmpty drops transactions left with no accesses.
func (c *Compact) filter(keepTxn func(ti int) bool, keepAcc func(d uint32) bool, dropEmpty bool) *Compact {
	remap := make([]int32, c.NumTuples()) // new id + 1; 0 until first kept access
	var tuples []TupleID
	out := &Compact{Off: make([]int32, 1, c.NumTxns()+1), Accs: make([]uint32, 0, len(c.Accs))}
	for ti := 0; ti < c.NumTxns(); ti++ {
		if keepTxn != nil && !keepTxn(ti) {
			continue
		}
		start := len(out.Accs)
		for _, e := range c.Txn(ti) {
			d := e &^ WriteBit
			if keepAcc != nil && !keepAcc(d) {
				continue
			}
			if remap[d] == 0 {
				tuples = append(tuples, c.In.TupleOf(int32(d)))
				remap[d] = int32(len(tuples))
			}
			out.Accs = append(out.Accs, uint32(remap[d]-1)|e&WriteBit)
		}
		if dropEmpty && len(out.Accs) == start {
			continue
		}
		out.Off = append(out.Off, int32(len(out.Accs)))
	}
	out.In = InternerOf(tuples)
	return out
}

package workload

import "math/rand"

// SampleTxns returns a new trace containing each transaction independently
// with probability rate (transaction-level sampling, §5.1). The relative
// order of retained transactions is preserved and IDs are reassigned.
func SampleTxns(tr *Trace, rate float64, rng *rand.Rand) *Trace {
	if rate >= 1 {
		return tr
	}
	out := NewTrace()
	for _, t := range tr.Txns {
		if rng.Float64() < rate {
			out.Add(t.Accesses, t.SQL...)
		}
	}
	return out
}

// SampleTuples performs tuple-level sampling (§5.1): it selects each distinct
// tuple with probability rate and removes accesses to unselected tuples from
// every transaction. Transactions left with no accesses are dropped.
func SampleTuples(tr *Trace, rate float64, rng *rand.Rand) *Trace {
	if rate >= 1 {
		return tr
	}
	keep := make(map[TupleID]bool)
	decided := make(map[TupleID]bool)
	out := NewTrace()
	for _, t := range tr.Txns {
		var acc []Access
		for _, a := range t.Accesses {
			if !decided[a.Tuple] {
				decided[a.Tuple] = true
				keep[a.Tuple] = rng.Float64() < rate
			}
			if keep[a.Tuple] {
				acc = append(acc, a)
			}
		}
		if len(acc) > 0 {
			out.Add(acc, t.SQL...)
		}
	}
	return out
}

// FilterBlanket removes "blanket statements" (§5.1): transactions whose
// access set exceeds maxTuples are dropped entirely. In the paper these are
// occasional scans that touch large portions of a table; they add many
// uninformative edges and parallelise well anyway.
func FilterBlanket(tr *Trace, maxTuples int) *Trace {
	out := NewTrace()
	for _, t := range tr.Txns {
		if len(t.Tuples()) <= maxTuples {
			out.Add(t.Accesses, t.SQL...)
		}
	}
	return out
}

// FilterRelevance removes accesses to tuples accessed fewer than minAccesses
// times across the whole trace (§5.1). Rarely touched tuples carry little
// information for partitioning; they are later placed by the explanation
// predicates or replicated.
func FilterRelevance(tr *Trace, minAccesses int) *Trace {
	if minAccesses <= 1 {
		return tr
	}
	c := CompactTrace(tr)
	stats := c.Stats()
	out := NewTrace()
	for ti, t := range tr.Txns {
		var acc []Access
		for j, e := range c.Txn(ti) {
			d := e &^ WriteBit
			if int(stats.Reads[d]+stats.Writes[d]) >= minAccesses {
				acc = append(acc, t.Accesses[j])
			}
		}
		if len(acc) > 0 {
			out.Add(acc, t.SQL...)
		}
	}
	return out
}

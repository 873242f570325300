package workload

import "math/rand"

// SampleTxns keeps each transaction independently with probability rate
// (transaction-level sampling, §5.1), drawing once per transaction in
// trace order. The relative order of retained transactions is preserved.
// It works on the interned form, Compact to Compact: the sample is
// renumbered so that its ids run in order of first appearance among the
// accesses it keeps, which is exactly what interning the sampled
// transactions would assign. A rate >= 1 returns c itself.
func SampleTxns(c *Compact, rate float64, rng *rand.Rand) *Compact {
	if rate >= 1 {
		return c
	}
	remap := make([]int32, c.NumTuples()) // new id + 1; 0 until first kept access
	var tuples []TupleID
	out := &Compact{Off: make([]int32, 1, c.NumTxns()+1), Accs: make([]uint32, 0, len(c.Accs))}
	for ti := 0; ti < c.NumTxns(); ti++ {
		if rng.Float64() >= rate {
			continue
		}
		for _, e := range c.Txn(ti) {
			d := e &^ WriteBit
			if remap[d] == 0 {
				tuples = append(tuples, c.In.TupleOf(int32(d)))
				remap[d] = int32(len(tuples))
			}
			out.Accs = append(out.Accs, uint32(remap[d]-1)|e&WriteBit)
		}
		out.Off = append(out.Off, int32(len(out.Accs)))
	}
	out.In = InternerOf(tuples)
	return out
}

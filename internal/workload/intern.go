package workload

// Interner assigns dense int32 ids to TupleIDs in first-appearance order.
// Interning a trace once lets every downstream hot loop (graph
// construction, partition evaluation, lookup building) index plain slices
// instead of hashing {string, int64} struct keys per access.
//
// Ids are dense: the i-th distinct tuple interned gets id i, so slices of
// length Len() are valid per-tuple tables.
type Interner struct {
	tables map[string]map[int64]int32
	tuples []TupleID
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{tables: make(map[string]map[int64]int32)}
}

// Intern returns the dense id for the tuple, assigning the next id on
// first sight. The two-level (table, key) map hashes an int64 per access
// instead of a struct containing a string.
func (in *Interner) Intern(id TupleID) int32 {
	keys := in.tables[id.Table]
	if keys == nil {
		keys = make(map[int64]int32)
		in.tables[id.Table] = keys
	}
	d, ok := keys[id.Key]
	if !ok {
		d = int32(len(in.tuples))
		keys[id.Key] = d
		in.tuples = append(in.tuples, id)
	}
	return d
}

// Lookup returns the dense id for a tuple interned earlier.
func (in *Interner) Lookup(id TupleID) (int32, bool) {
	d, ok := in.tables[id.Table][id.Key]
	return d, ok
}

// TupleOf returns the tuple for a dense id.
func (in *Interner) TupleOf(d int32) TupleID { return in.tuples[d] }

// Tuples returns the dense-id → TupleID table, indexed by id. The slice is
// shared with the interner; callers must not mutate it.
func (in *Interner) Tuples() []TupleID { return in.tuples }

// Len returns the number of distinct tuples interned.
func (in *Interner) Len() int { return len(in.tuples) }

// WriteBit marks a packed compact-trace access as a write; the low 31 bits
// hold the dense tuple id.
const WriteBit uint32 = 1 << 31

// Compact is a dense-id encoding of a trace: every transaction's access
// list flattened into one packed array. Transaction t's accesses are
// Accs[Off[t]:Off[t+1]]; each entry is the dense tuple id with WriteBit
// set for writes. Offsets are int32, so a compact trace holds at most ~2G
// accesses.
type Compact struct {
	In   *Interner
	Off  []int32
	Accs []uint32
}

// CompactTrace interns a trace. Every access hashes exactly once, here;
// afterwards the trace is pure slice data.
func CompactTrace(tr *Trace) *Compact {
	n := 0
	for _, t := range tr.Txns {
		n += len(t.Accesses)
	}
	c := &Compact{In: NewInterner(), Off: make([]int32, 1, len(tr.Txns)+1), Accs: make([]uint32, 0, n)}
	for _, t := range tr.Txns {
		for _, a := range t.Accesses {
			e := uint32(c.In.Intern(a.Tuple))
			if a.Write {
				e |= WriteBit
			}
			c.Accs = append(c.Accs, e)
		}
		c.Off = append(c.Off, int32(len(c.Accs)))
	}
	return c
}

// NumTxns returns the number of transactions.
func (c *Compact) NumTxns() int { return len(c.Off) - 1 }

// NumTuples returns the number of distinct tuples.
func (c *Compact) NumTuples() int { return c.In.Len() }

// Txn returns transaction i's packed accesses (aliasing Accs).
func (c *Compact) Txn(i int) []uint32 { return c.Accs[c.Off[i]:c.Off[i+1]] }

// DenseStats summarises per-tuple access behaviour over a compact trace:
// Reads[d] and Writes[d] count the transactions (not statements) that
// read resp. wrote dense tuple d.
type DenseStats struct {
	Reads  []int32
	Writes []int32
}

// Stats aggregates per-tuple transaction counts over the compact trace
// using epoch-stamped scratch arrays — no per-transaction maps.
func (c *Compact) Stats() *DenseStats {
	n := c.NumTuples()
	ds := &DenseStats{Reads: make([]int32, n), Writes: make([]int32, n)}
	lastRead := make([]int32, n)
	lastWrite := make([]int32, n)
	for i := range lastRead {
		lastRead[i], lastWrite[i] = -1, -1
	}
	for ti := 0; ti < c.NumTxns(); ti++ {
		for _, e := range c.Txn(ti) {
			d := int32(e &^ WriteBit)
			if e&WriteBit != 0 {
				if lastWrite[d] != int32(ti) {
					lastWrite[d] = int32(ti)
					ds.Writes[d]++
				}
			} else if lastRead[d] != int32(ti) {
				lastRead[d] = int32(ti)
				ds.Reads[d]++
			}
		}
	}
	return ds
}

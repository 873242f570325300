package workload

import "sync"

// Interner assigns dense int32 ids to TupleIDs in first-appearance order.
// Interning a trace once lets every downstream hot loop (graph
// construction, partition evaluation, lookup building) index plain slices
// instead of hashing {string, int64} struct keys per access.
//
// Ids are dense: the i-th distinct tuple interned gets id i, so slices of
// length Len() are valid per-tuple tables.
//
// The id → tuple table is the interner's state; the TupleID → id maps are
// an index over it, built on the first Intern or Lookup. An interner made
// by InternerOf for a producer that already holds dense ids (the live
// capture window) therefore costs no hashing unless someone asks for a
// tuple's id. Lookup, TupleOf, Tuples and Len are safe for concurrent
// use; Intern is not. An Interner holds a sync.Once: do not copy it.
type Interner struct {
	tuples []TupleID
	index  sync.Once
	tables map[string]map[int64]int32
}

// NewInterner returns an empty interner.
func NewInterner() *Interner { return &Interner{} }

// InternerOf returns an interner whose id i is tuples[i]. The tuples must
// be distinct and the caller must not use the slice afterwards. Spare
// capacity says how far the interner is expected to grow: Intern appends
// into it, and the reverse maps are sized for it too.
func InternerOf(tuples []TupleID) *Interner { return &Interner{tuples: tuples} }

// byTable returns the TupleID → id maps, hashing every tuple interned so
// far on the first call.
func (in *Interner) byTable() map[string]map[int64]int32 {
	in.index.Do(func() {
		perTable := make(map[string]int)
		for _, id := range in.tuples {
			perTable[id.Table]++
		}
		in.tables = make(map[string]map[int64]int32, len(perTable))
		for table, n := range perTable {
			in.tables[table] = make(map[int64]int32, n*cap(in.tuples)/len(in.tuples))
		}
		for d, id := range in.tuples {
			in.tables[id.Table][id.Key] = int32(d)
		}
	})
	return in.tables
}

// Intern returns the dense id for the tuple, assigning the next id on
// first sight. The two-level (table, key) map hashes an int64 per access
// instead of a struct containing a string.
func (in *Interner) Intern(id TupleID) int32 {
	tables := in.byTable()
	keys := tables[id.Table]
	if keys == nil {
		keys = make(map[int64]int32)
		tables[id.Table] = keys
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
	d, ok := in.byTable()[id.Table][id.Key]
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

// CompactTrace returns the trace's interned form. It is computed — every
// access hashed exactly once — on the first call and kept on the trace,
// so the graph build, the evaluator, the window scorer and relevance
// filtering share one Compact per trace; callers must treat it as
// read-only. The memo is valid while the trace has as many transactions
// as it had when interned (Add drops it), and relies on a transaction's
// Accesses not being edited once its trace has been interned. Concurrent
// calls are safe; racing first calls may each compute the (equal) form.
// A compact-only trace (FromCompact) returns its Compact.
func CompactTrace(tr *Trace) *Compact {
	if tr.dense != nil {
		return tr.dense
	}
	if c := tr.compact.Load(); c != nil && c.NumTxns() == len(tr.Txns) {
		return c
	}
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
	tr.compact.Store(c)
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

// Package workload models OLTP workload traces: the set of tuples read and
// written by each transaction, plus the SQL text the transaction executed.
//
// A trace is the primary input to the Schism pipeline (the paper's "SQL
// trace", Section 2). Generators in internal/workloads produce traces with
// ground-truth read/write sets. Two readers use the SQL text:
// featsel.Frequencies mines its WHERE columns (§5.2), and the workloads'
// resolver (Workload.virtualRows) reads its INSERTs for the rows the
// trace creates (App. C.2). Nothing re-derives access sets from the text.
package workload

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// TupleID identifies a tuple globally by table name and primary key.
// All tables in this system use a dense int64 surrogate key; composite
// keys are encoded into the int64 by the workload generator.
type TupleID struct {
	Table string
	Key   int64
}

func (t TupleID) String() string { return fmt.Sprintf("%s:%d", t.Table, t.Key) }

// Less orders TupleIDs by (Table, Key); used for deterministic iteration.
func (t TupleID) Less(o TupleID) bool {
	if t.Table != o.Table {
		return t.Table < o.Table
	}
	return t.Key < o.Key
}

// Access records one tuple touched by a transaction and whether it was
// written (INSERT, UPDATE or DELETE) or only read.
type Access struct {
	Tuple TupleID
	Write bool
}

// Txn is one transaction in the trace: its access set and, optionally, the
// SQL statements it executed (used by the explanation phase to mine
// frequently used WHERE attributes, §5.2).
type Txn struct {
	ID       int
	Accesses []Access
	SQL      []string
}

// Tuples returns the distinct tuples accessed by the transaction, in
// deterministic order. If a tuple is both read and written it appears once.
func (t *Txn) Tuples() []TupleID {
	seen := make(map[TupleID]struct{}, len(t.Accesses))
	out := make([]TupleID, 0, len(t.Accesses))
	for _, a := range t.Accesses {
		if _, ok := seen[a.Tuple]; ok {
			continue
		}
		seen[a.Tuple] = struct{}{}
		out = append(out, a.Tuple)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// ReadOnly reports whether the transaction performs no writes.
func (t *Txn) ReadOnly() bool {
	for _, a := range t.Accesses {
		if a.Write {
			return false
		}
	}
	return true
}

// Trace is an ordered collection of transactions, as captured from a
// workload log.
//
// A trace made by FromCompact is compact-only: it holds its transactions
// in their interned form and nothing else. Its Txns is nil; Len and
// CompactTrace answer from the Compact, which is all the graph build, the
// evaluator and the live scorer read. Add and Split panic on it, because
// both hand out or extend per-transaction Txn values it does not have.
type Trace struct {
	Txns []*Txn

	// compact memoises CompactTrace. The halves Split returns are new
	// values and do not inherit it. It makes a Trace non-copyable; pass
	// traces by pointer.
	compact atomic.Pointer[Compact]
	// dense is the whole of a compact-only trace.
	dense *Compact
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// FromCompact returns a compact-only trace over c, for a producer that
// already holds its transactions in dense form (the live capture window).
// c must follow CompactTrace's rules: ids in first-appearance order, and
// read-only from here on.
func FromCompact(c *Compact) *Trace { return &Trace{dense: c} }

// Add appends a transaction, assigning it the next sequential ID. The
// transaction keeps accesses and sql as given, without copying them, so a
// caller must not reuse their backing arrays afterwards. It panics on a
// compact-only trace, which has no Txns to append to.
func (tr *Trace) Add(accesses []Access, sql ...string) *Txn {
	if tr.dense != nil {
		panic("workload: Add to a compact-only trace")
	}
	t := &Txn{ID: len(tr.Txns), Accesses: accesses, SQL: sql}
	tr.Txns = append(tr.Txns, t)
	tr.compact.Store(nil)
	return t
}

// Len returns the number of transactions in the trace.
func (tr *Trace) Len() int {
	if tr.dense != nil {
		return tr.dense.NumTxns()
	}
	return len(tr.Txns)
}

// Split divides the trace into a training prefix and testing suffix.
// trainFrac is clamped to [0,1], NaN counting as 0. The halves share the
// parent's transactions but not its backing array's spare room: an Add
// to train allocates instead of overwriting test's first transaction. It
// panics on a compact-only trace.
func (tr *Trace) Split(trainFrac float64) (train, test *Trace) {
	if tr.dense != nil {
		panic("workload: Split of a compact-only trace")
	}
	if !(trainFrac > 0) {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	n := int(float64(len(tr.Txns)) * trainFrac)
	return &Trace{Txns: tr.Txns[:n:n]}, &Trace{Txns: tr.Txns[n:]}
}

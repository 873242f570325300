// Package workload models OLTP workload traces: the set of tuples read and
// written by each transaction, plus the SQL text the transaction executed.
//
// A trace is the primary input to the Schism pipeline (the paper's "SQL
// trace", Section 2). Generators in internal/workloads produce traces with
// ground-truth read/write sets; internal/sqlparse can re-derive access sets
// from the SQL text to exercise the paper's trace-extraction path (§5.3).
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
type Trace struct {
	Txns []*Txn

	// compact memoises CompactTrace. Traces derived from this one (Split,
	// sampling, filtering) are new values and do not inherit it. It makes
	// a Trace non-copyable; pass traces by pointer.
	compact atomic.Pointer[Compact]
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Add appends a transaction, assigning it the next sequential ID.
func (tr *Trace) Add(accesses []Access, sql ...string) *Txn {
	t := &Txn{ID: len(tr.Txns), Accesses: accesses, SQL: sql}
	tr.Txns = append(tr.Txns, t)
	tr.compact.Store(nil)
	return t
}

// Len returns the number of transactions in the trace.
func (tr *Trace) Len() int { return len(tr.Txns) }

// Split divides the trace into a training prefix and testing suffix.
// trainFrac is clamped to [0,1].
func (tr *Trace) Split(trainFrac float64) (train, test *Trace) {
	if trainFrac < 0 {
		trainFrac = 0
	}
	if trainFrac > 1 {
		trainFrac = 1
	}
	n := int(float64(len(tr.Txns)) * trainFrac)
	return &Trace{Txns: tr.Txns[:n]}, &Trace{Txns: tr.Txns[n:]}
}

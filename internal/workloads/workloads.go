// Package workloads generates the paper's benchmark databases and traces:
// the simplecount microbenchmark (§3), YCSB workloads A and E, TPC-C at any
// warehouse count, a scaled-down TPC-E ("TPC-E-lite"), the Epinions.com
// social workload, and the adversarial Random workload (App. D).
//
// Each generator returns a Workload: the populated database, a transaction
// trace (ground-truth read/write sets plus the SQL text), per-table key
// columns, and — where the paper reports one — the best-known manual
// partitioning strategy for comparison.
package workloads

import (
	"strconv"
	"strings"

	"schism/internal/dtree"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
)

// Local aliases keep rule-building code readable.
const (
	condLe = dtree.CondLe
	condGt = dtree.CondGt
	condEq = dtree.CondEq
)

// Workload bundles everything the Schism pipeline needs for one benchmark.
type Workload struct {
	// Name identifies the workload in reports (e.g. "TPCC-2W").
	Name string
	// DB is the populated single-node image of the database; the pipeline
	// resolves tuple attribute values from it, and cluster experiments
	// split it across nodes.
	DB *storage.Database
	// Trace is the captured workload (training + testing combined; use
	// Trace.Split).
	Trace *workload.Trace
	// KeyColumns maps each table to its primary-key column name.
	KeyColumns map[string]string
	// Manual builds the paper's best-known manual strategy for k
	// partitions, or nil when none is reported (TPC-E).
	Manual func(k int) partition.Strategy
}

// Resolver returns a partition.Resolver that reads tuple attribute values
// from the workload's database, falling back to "virtual rows" parsed from
// the trace's INSERT statements for tuples the trace creates. The fallback
// mirrors the real router (App. C.2), which routes an INSERT by the column
// values it carries.
func (w *Workload) Resolver() partition.Resolver {
	virtual := w.virtualRows()
	return func(id workload.TupleID) partition.Row {
		tbl := w.DB.Table(id.Table)
		if tbl == nil {
			return nil
		}
		if row, ok := tbl.Get(id.Key); ok {
			return storage.RowView{Schema: tbl.Schema, Data: row}
		}
		if rv, ok := virtual[id]; ok {
			return rv
		}
		return nil
	}
}

// virtualRows reconstructs rows for tuples created by the trace's INSERTs.
// Only a statement that starts with INSERT can parse to one, so no other
// statement is parsed. Each row is stored as the *storage.RowView the
// resolver returns, so resolving it boxes nothing.
func (w *Workload) virtualRows() map[workload.TupleID]*storage.RowView {
	out := make(map[workload.TupleID]*storage.RowView)
	for _, t := range w.Trace.Txns {
		for _, src := range t.SQL {
			if !startsWithInsert(src) {
				continue
			}
			stmt, err := sqlparse.Parse(src)
			if err != nil {
				continue
			}
			ins, ok := stmt.(*sqlparse.Insert)
			if !ok {
				continue
			}
			tbl := w.DB.Table(ins.Table)
			if tbl == nil {
				continue
			}
			schema := tbl.Schema
			row := make(storage.Row, len(schema.Columns))
			for i, col := range ins.Cols {
				if ci := schema.ColIndex(col); ci >= 0 {
					row[ci] = ins.Values[i]
				}
			}
			key, ok := row[schema.KeyIndex()].AsInt()
			if !ok {
				continue
			}
			id := workload.TupleID{Table: ins.Table, Key: key}
			if _, dup := out[id]; !dup {
				out[id] = &storage.RowView{Schema: schema, Data: row}
			}
		}
	}
	return out
}

// startsWithInsert reports whether src's first word, after the whitespace
// the SQL lexer skips, begins with INSERT in any letter case.
func startsWithInsert(src string) bool {
	src = strings.TrimLeft(src, " \t\n\r")
	return len(src) >= len("INSERT") && strings.EqualFold(src[:len("INSERT")], "INSERT")
}

// txnText renders one transaction's statements into a byte buffer that a
// generator reuses for its whole trace, so a statement costs neither a
// format nor its own allocation. A template's only verb is %d.
type txnText struct {
	buf  []byte
	ends []int // ends[i] is where statement i ends in buf
}

// add appends one statement: tmpl with each %d replaced by the next of args.
func (t *txnText) add(tmpl string, args ...int64) {
	for _, a := range args {
		i := strings.Index(tmpl, "%d")
		t.buf = strconv.AppendInt(append(t.buf, tmpl[:i]...), a, 10)
		tmpl = tmpl[i+2:]
	}
	t.buf = append(t.buf, tmpl...)
	t.ends = append(t.ends, len(t.buf))
}

// take returns the statements added since the last take as substrings of
// one new string and empties the buffer for the next transaction.
func (t *txnText) take() []string {
	text := string(t.buf)
	sql := make([]string, len(t.ends))
	start := 0
	for i, end := range t.ends {
		sql[i], start = text[start:end], end
	}
	t.buf, t.ends = t.buf[:0], t.ends[:0]
	return sql
}

// TupleSize returns a size function for data-size balancing.
func (w *Workload) TupleSize(id workload.TupleID) int64 {
	tbl := w.DB.Table(id.Table)
	if tbl == nil {
		return 1
	}
	row, ok := tbl.Get(id.Key)
	if !ok {
		return 1
	}
	var s int64
	for _, d := range row {
		s += d.Size()
	}
	return s
}

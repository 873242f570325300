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
	"sync"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
)

// evenUpper is the upper bounds of k equal-width ranges of the keys 0 …
// rows-1, for partition.Ranges: the last range also takes the remainder.
func evenUpper(rows, k int) []int64 {
	upper := make([]int64, k-1)
	for p := range upper {
		upper[p] = int64((p+1)*(rows/k) - 1)
	}
	return upper
}

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

	// virtual holds the rows of the tuples the trace inserts, built on
	// the first Resolver call and shared, read-only, by every resolver.
	virtualOnce sync.Once
	virtual     map[workload.TupleID]*storage.RowView
}

// Resolver returns a partition.Resolver that reads tuple attribute values
// from the workload's database, falling back to "virtual rows" parsed from
// the trace's INSERT statements for tuples the trace creates. The fallback
// mirrors the real router (App. C.2), which routes an INSERT by the column
// values it carries.
//
// A stored row is read into one scratch view per table, so resolving it
// neither copies it into a fresh slice nor boxes it; as the
// partition.Resolver contract allows, the row is valid until the
// resolver's next call. A virtual row is one of the views that every
// resolver of the workload shares, built on the first call.
func (w *Workload) Resolver() partition.Resolver {
	w.virtualOnce.Do(func() { w.virtual = w.virtualRows() })
	virtual := w.virtual
	type scratch struct {
		tbl  *storage.Table
		view storage.RowView
	}
	tables := make(map[string]*scratch)
	return func(id workload.TupleID) partition.Row {
		s := tables[id.Table]
		if s == nil {
			tbl := w.DB.Table(id.Table)
			if tbl == nil {
				return nil
			}
			s = &scratch{tbl: tbl, view: storage.RowView{Schema: tbl.Schema, Data: make(storage.Row, len(tbl.Schema.Columns))}}
			tables[id.Table] = s
		}
		if s.tbl.GetInto(id.Key, s.view.Data) {
			return &s.view
		}
		if rv, ok := virtual[id]; ok {
			return rv
		}
		return nil
	}
}

// virtualRows reconstructs rows for tuples created by the trace's INSERTs.
// Only a statement that starts with INSERT can parse to one, so no other
// statement is read, and an InsertMemo parses one INSERT per statement
// shape. Each row is stored as the *storage.RowView the resolver returns,
// so resolving it boxes nothing; its string values are copies, so it
// pins no trace text.
func (w *Workload) virtualRows() map[workload.TupleID]*storage.RowView {
	out := make(map[workload.TupleID]*storage.RowView)
	var memo sqlparse.InsertMemo
	// An INSERT shape's table and column positions are looked up once. The
	// memo shares one column list per shape, so its first element's
	// address names the shape.
	type insertShape struct {
		schema *storage.TableSchema // nil when the table does not exist
		cols   []int                // schema position of each inserted column, or -1
		key    int                  // the last inserted column that is the key, or -1
	}
	shapes := make(map[*string]insertShape)
	// Rows and their views are cut from slabs: a new tuple allocates
	// nothing of its own, and every row lives as long as the workload.
	const slab = 1024
	var views []storage.RowView
	var data []datum.D
	for _, t := range w.Trace.Txns {
		for _, src := range t.SQL {
			if !startsWithInsert(src) {
				continue
			}
			ins, ok := memo.Insert(src)
			if !ok {
				continue
			}
			sh, seen := shapes[&ins.Cols[0]]
			if !seen {
				sh.key = -1
				if tbl := w.DB.Table(ins.Table); tbl != nil {
					sh.schema = tbl.Schema
					sh.cols = make([]int, len(ins.Cols))
					for i, col := range ins.Cols {
						sh.cols[i] = sh.schema.ColIndex(col)
						if sh.cols[i] == sh.schema.KeyIndex() {
							sh.key = i
						}
					}
				}
				shapes[&ins.Cols[0]] = sh
			}
			if sh.key < 0 {
				continue
			}
			key, ok := ins.Values[sh.key].AsInt()
			if !ok {
				continue
			}
			id := workload.TupleID{Table: ins.Table, Key: key}
			if _, dup := out[id]; dup {
				continue
			}
			n := len(sh.schema.Columns)
			if cap(data)-len(data) < n {
				data = make([]datum.D, 0, max(n, slab))
			}
			row := data[len(data) : len(data)+n : len(data)+n]
			data = data[:len(data)+n]
			for i, ci := range sh.cols {
				if ci >= 0 {
					row[ci] = ins.Values[i]
				}
			}
			if len(views) == cap(views) {
				views = make([]storage.RowView, 0, slab)
			}
			views = append(views, storage.RowView{Schema: sh.schema, Data: row})
			out[id] = &views[len(views)-1]
		}
	}
	return out
}

// startsWithInsert reports whether src's first word, after the whitespace
// the SQL lexer skips, begins with INSERT in any letter case.
func startsWithInsert(src string) bool {
	i := 0
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	return len(src)-i >= len("INSERT") && strings.EqualFold(src[i:i+len("INSERT")], "INSERT")
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

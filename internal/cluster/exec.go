package cluster

import (
	"fmt"
	"slices"
	"sort"

	"schism/internal/datum"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/txn"
)

// execute runs one statement under strict 2PL against the node's local
// database. Structure latches (n.latch) protect the B+tree/indexes; row
// locks provide transaction isolation. Locks are never awaited while a
// latch is held. With capture set, the response reports the keys of every
// row the statement actually matched — the ground truth the live workload
// capture records. Literals of pl.stmt may be placeholders: every value is
// read through pl.args (sqlparse.BindValue / EvalBound).
func (n *Node) execute(ts txn.TS, st *txnState, pl *plan, capture bool) response {
	switch s := pl.stmt.(type) {
	case *sqlparse.Select:
		return n.execSelect(ts, pl, s, capture, true)
	case *sqlparse.Update:
		return n.execUpdate(ts, st, pl, s, capture)
	case *sqlparse.Insert:
		return n.execInsert(ts, st, pl, s, capture)
	case *sqlparse.Delete:
		return n.execDelete(ts, st, pl, s, capture)
	default:
		return response{err: fmt.Errorf("cluster: unsupported statement %T", pl.stmt)}
	}
}

// candidates finds the keys of rows possibly matching the WHERE clause,
// using the primary key or a secondary index when the constraints the
// coordinator extracted allow, and a full scan otherwise. Caller re-checks
// the predicate after locking. A point or IN key list is appended to
// point, storage the caller owns (a stack buffer keeps a point statement
// off the heap); the other paths return slices of their own.
func (n *Node) candidates(point []int64, tbl *storage.Table, pl *plan, where sqlparse.Expr) []int64 {
	n.latch.RLock()
	defer n.latch.RUnlock()

	keyCol := tbl.Schema.Key
	var keys []int64
	if pl.routable {
		// Point/IN lookups on the primary key.
		for _, c := range pl.cons {
			if c.Column != keyCol || len(c.Eq) == 0 {
				continue
			}
			for _, v := range c.Eq {
				if k, ok := v.AsInt(); ok {
					point = append(point, k)
				}
			}
			return dedupInt64(point)
		}
		// Range on the primary key.
		for _, c := range pl.cons {
			if c.Column != keyCol || (c.Lo == nil && c.Hi == nil) {
				continue
			}
			lo, hi := keyRange(c)
			tbl.ScanKeys(lo, hi, func(k int64) bool {
				keys = append(keys, k)
				return true
			})
			return keys
		}
		// Secondary index equality.
		for _, c := range pl.cons {
			if len(c.Eq) != 1 || !tbl.HasIndex(c.Column) {
				continue
			}
			return tbl.LookupIndex(c.Column, c.Eq[0])
		}
	}
	// Full scan: pre-filter with the predicate to avoid locking everything.
	schema := tbl.Schema
	tbl.ViewAll(func(k int64, row storage.Row) bool {
		if evalRow(where, pl.args, schema, row) {
			keys = append(keys, k)
		}
		return true
	})
	return keys
}

func keyRange(c sqlparse.Constraint) (lo, hi int64) {
	lo, hi = int64(-1<<63), int64(1<<63-1)
	if c.Lo != nil {
		if v, ok := c.Lo.AsInt(); ok {
			lo = v
			if c.LoStrict {
				lo++
			}
		}
	}
	if c.Hi != nil {
		if v, ok := c.Hi.AsInt(); ok {
			hi = v
			if c.HiStrict {
				hi--
			}
		}
	}
	return lo, hi
}

func evalRow(where sqlparse.Expr, args []datum.D, schema *storage.TableSchema, row storage.Row) bool {
	return sqlparse.EvalBound(where, args, func(c sqlparse.ColRef) datum.D {
		i := schema.ColIndex(c.Column)
		if i < 0 {
			return datum.NullD
		}
		return row[i]
	})
}

// dedupInt64 sorts keys and drops repeats, in place.
func dedupInt64(keys []int64) []int64 {
	if len(keys) < 2 {
		return keys // a point lookup's one key
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// execSelect runs a SELECT, with row locking optional: the leader path
// locks (strict 2PL isolation), a lease-valid follower reads its
// committed prefix lock-free — rows are atomic under the latch, but the
// result is a timeline read, not serializable against the leader.
func (n *Node) execSelect(ts txn.TS, pl *plan, s *sqlparse.Select, capture, locked bool) response {
	if s.Join != nil {
		return response{err: fmt.Errorf("cluster: runtime joins not supported")}
	}
	tbl := n.db.Table(s.Table)
	if tbl == nil {
		return response{err: fmt.Errorf("cluster: no table %q", s.Table)}
	}
	mode := txn.Shared
	if s.ForUpdate {
		mode = txn.Exclusive
	}
	schema := tbl.Schema
	// ORDER BY sorts on the column's position in the rows returned, so the
	// rows must hold it: with explicit columns, the projection may have
	// moved it or left it out.
	order := 0
	if s.OrderBy != nil {
		if order = projectedIndex(s, schema, s.OrderBy.Column); order < 0 {
			return response{err: fmt.Errorf("cluster: ORDER BY %s: not a selected column", s.OrderBy.Column)}
		}
	}
	// The WHERE clause reads each candidate in scratch on the stack
	// (per call: followers read under a shared latch), and a match is
	// copied once, at the width the SELECT returns. cols holds the
	// selected columns' positions, -1 for one the table lacks (NULL);
	// nil selects them all.
	var scratchBuf [16]datum.D
	scratch := storage.Row(scratchBuf[:])
	if nc := len(schema.Columns); nc <= len(scratch) {
		scratch = scratch[:nc]
	} else {
		scratch = make(storage.Row, nc)
	}
	var colBuf [16]int
	var cols []int
	if len(s.Cols) > 0 {
		cols = colBuf[:0]
		for _, c := range s.Cols {
			cols = append(cols, schema.ColIndex(c.Column))
		}
	}
	var rows []storage.Row
	var keys []int64
	var point [4]int64
	cands := n.candidates(point[:0], tbl, pl, s.Where)
	for j, k := range cands {
		if locked {
			if err := n.locks.Acquire(ts, txn.LockKey{Table: s.Table, Key: k}, mode); err != nil {
				return response{err: err}
			}
		}
		n.latch.RLock()
		ok := tbl.GetInto(k, scratch) && evalRow(s.Where, pl.args, schema, scratch)
		n.latch.RUnlock()
		if !ok {
			continue
		}
		if rows == nil {
			rows = make([]storage.Row, 0, len(cands)-j)
		}
		if cols == nil {
			rows = append(rows, slices.Clone(scratch))
		} else {
			out := make(storage.Row, len(cols))
			for i, ci := range cols {
				if ci >= 0 {
					out[i] = scratch[ci]
				}
			}
			rows = append(rows, out)
		}
		if capture {
			keys = append(keys, k)
		}
	}
	if s.OrderBy != nil {
		sort.SliceStable(rows, func(i, j int) bool {
			cmp := datum.Compare(rows[i][order], rows[j][order])
			if s.Desc {
				return cmp > 0
			}
			return cmp < 0
		})
	}
	if s.Limit >= 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	// keys lists every matched (hence locked and read) row, including any
	// trimmed off by LIMIT: those reads happened.
	return response{rows: rows, n: len(rows), keys: keys, order: order}
}

func projectedIndex(s *sqlparse.Select, schema *storage.TableSchema, col string) int {
	if len(s.Cols) == 0 {
		return schema.ColIndex(col)
	}
	for i, c := range s.Cols {
		if c.Column == col {
			return i
		}
	}
	return -1
}

func (n *Node) execUpdate(ts txn.TS, st *txnState, pl *plan, s *sqlparse.Update, capture bool) response {
	tbl := n.db.Table(s.Table)
	if tbl == nil {
		return response{err: fmt.Errorf("cluster: no table %q", s.Table)}
	}
	count := 0
	var keys []int64
	var point [4]int64
	for _, k := range n.candidates(point[:0], tbl, pl, s.Where) {
		if err := n.locks.Acquire(ts, txn.LockKey{Table: s.Table, Key: k}, txn.Exclusive); err != nil {
			return response{err: err}
		}
		n.latch.Lock()
		// row is the one copy made per updated tuple, in the state's image
		// slab: the before-image the WAL encodes and the undo chain keeps.
		// The new values are built in the node's scratch row and written
		// over the stored ones in place.
		row := st.nextImage(len(tbl.Schema.Columns))
		if !tbl.GetInto(k, row) || !evalRow(s.Where, pl.args, tbl.Schema, row) {
			n.latch.Unlock()
			continue
		}
		n.rowBuf = append(n.rowBuf[:0], row...)
		if err := applySet(s.Set, pl.args, tbl.Schema, n.rowBuf); err != nil {
			n.latch.Unlock()
			return response{err: err}
		}
		// Write-ahead: the before-image must be in the log before the row
		// changes, or a crash between the two could lose the undo.
		n.wal.AppendUpdate(uint64(ts), s.Table, k, row, true)
		st.pushUndo(s.Table, k, row)
		if err := tbl.Update(k, n.rowBuf); err != nil {
			n.latch.Unlock()
			return response{err: err}
		}
		n.latch.Unlock()
		count++
		if capture {
			keys = append(keys, k)
		}
	}
	return response{n: count, keys: keys}
}

func applySet(set []sqlparse.Assignment, args []datum.D, schema *storage.TableSchema, row storage.Row) error {
	for _, a := range set {
		ci := schema.ColIndex(a.Col)
		if ci < 0 {
			return fmt.Errorf("cluster: no column %q", a.Col)
		}
		v := sqlparse.BindValue(a.Value, args)
		if a.SelfOp == 0 {
			row[ci] = v
			continue
		}
		// col = col ± v, preserving integer-ness when both sides are ints.
		old := row[ci]
		if old.K == datum.Int && v.K == datum.Int {
			if a.SelfOp == '+' {
				row[ci] = datum.NewInt(old.I + v.I)
			} else {
				row[ci] = datum.NewInt(old.I - v.I)
			}
			continue
		}
		of, ok1 := old.AsFloat()
		vf, ok2 := v.AsFloat()
		if !ok1 || !ok2 {
			return fmt.Errorf("cluster: non-numeric self-assignment on %q", a.Col)
		}
		if a.SelfOp == '+' {
			row[ci] = datum.NewFloat(of + vf)
		} else {
			row[ci] = datum.NewFloat(of - vf)
		}
	}
	return nil
}

func (n *Node) execInsert(ts txn.TS, st *txnState, pl *plan, s *sqlparse.Insert, capture bool) response {
	tbl := n.db.Table(s.Table)
	if tbl == nil {
		return response{err: fmt.Errorf("cluster: no table %q", s.Table)}
	}
	schema := tbl.Schema
	// The row lock comes before the latch and needs the key, so the key is
	// bound first; the row is then built under the latch in the node's
	// scratch row, and Insert's write into the leaf is its only copy.
	var keyVal datum.D
	for i, col := range s.Cols {
		if col == schema.Key {
			keyVal = sqlparse.BindValue(s.Values[i], pl.args)
		}
	}
	key, ok := keyVal.AsInt()
	if !ok {
		return response{err: fmt.Errorf("cluster: INSERT without integer key")}
	}
	if err := n.locks.Acquire(ts, txn.LockKey{Table: s.Table, Key: key}, txn.Exclusive); err != nil {
		return response{err: err}
	}
	n.latch.Lock()
	defer n.latch.Unlock()
	row := append(n.rowBuf[:0], make(storage.Row, len(schema.Columns))...)
	n.rowBuf = row
	for i, col := range s.Cols {
		ci := schema.ColIndex(col)
		if ci < 0 {
			return response{err: fmt.Errorf("cluster: no column %q", col)}
		}
		row[ci] = sqlparse.BindValue(s.Values[i], pl.args)
	}
	if err := tbl.Insert(row); err != nil {
		// No WAL record for a failed insert: logging one first would make
		// recovery delete the pre-existing row that caused the conflict.
		return response{err: err}
	}
	n.wal.AppendUpdate(uint64(ts), s.Table, key, nil, false)
	st.pushUndo(s.Table, key, nil)
	resp := response{n: 1}
	if capture {
		resp.keys = []int64{key}
	}
	return resp
}

func (n *Node) execDelete(ts txn.TS, st *txnState, pl *plan, s *sqlparse.Delete, capture bool) response {
	tbl := n.db.Table(s.Table)
	if tbl == nil {
		return response{err: fmt.Errorf("cluster: no table %q", s.Table)}
	}
	count := 0
	var keys []int64
	var point [4]int64
	for _, k := range n.candidates(point[:0], tbl, pl, s.Where) {
		if err := n.locks.Acquire(ts, txn.LockKey{Table: s.Table, Key: k}, txn.Exclusive); err != nil {
			return response{err: err}
		}
		n.latch.Lock()
		row := st.nextImage(len(tbl.Schema.Columns))
		if tbl.GetInto(k, row) && evalRow(s.Where, pl.args, tbl.Schema, row) {
			n.wal.AppendUpdate(uint64(ts), s.Table, k, row, true)
			st.pushUndo(s.Table, k, row)
			tbl.Delete(k)
			count++
			if capture {
				keys = append(keys, k)
			}
		}
		n.latch.Unlock()
	}
	return response{n: count, keys: keys}
}

package storage

import (
	"fmt"
	"sort"

	"schism/internal/datum"
)

// ColType enumerates column types.
type ColType int

// Column types.
const (
	IntCol ColType = iota
	FloatCol
	StringCol
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// TableSchema describes a table: its columns, the name of its int64
// primary-key column, and optional secondary hash indexes.
type TableSchema struct {
	Name    string
	Columns []Column
	// Key names the primary-key column, which must be IntCol. Composite
	// logical keys are encoded into the int64 by the workload generator.
	Key string
	// Indexes lists columns to maintain single-column hash indexes on.
	Indexes []string

	colIdx map[string]int
	keyIdx int
}

// init validates the schema and builds the column index.
func (s *TableSchema) init() error {
	s.colIdx = make(map[string]int, len(s.Columns))
	for i, c := range s.Columns {
		if _, dup := s.colIdx[c.Name]; dup {
			return fmt.Errorf("storage: duplicate column %q in %q", c.Name, s.Name)
		}
		s.colIdx[c.Name] = i
	}
	ki, ok := s.colIdx[s.Key]
	if !ok {
		return fmt.Errorf("storage: key column %q missing in %q", s.Key, s.Name)
	}
	if s.Columns[ki].Type != IntCol {
		return fmt.Errorf("storage: key column %q must be IntCol", s.Key)
	}
	s.keyIdx = ki
	for _, idx := range s.Indexes {
		if _, ok := s.colIdx[idx]; !ok {
			return fmt.Errorf("storage: index column %q missing in %q", idx, s.Name)
		}
	}
	return nil
}

// ColIndex returns the position of a column, or -1.
func (s *TableSchema) ColIndex(name string) int {
	if i, ok := s.colIdx[name]; ok {
		return i
	}
	return -1
}

// KeyIndex returns the position of the primary-key column.
func (s *TableSchema) KeyIndex() int { return s.keyIdx }

// Row is one tuple's values, positionally matching the schema columns.
type Row []datum.D

// Table is a B+tree-ordered heap of rows keyed by primary key. Rows are
// stored packed in the tree's leaves (see leaf), not as Rows: writes copy
// a Row's values in, reads build a Row from them, and no Row passed to or
// returned from a Table aliases its storage.
type Table struct {
	Schema *TableSchema
	tree   *btree
	// secondary[col] maps value-hash -> keys (collisions resolved by
	// re-checking the row).
	secondary map[string]map[uint64][]int64
	sizeBytes int64
}

func newTable(schema *TableSchema) *Table {
	t := &Table{Schema: schema, tree: newBTree(len(schema.Columns))}
	if len(schema.Indexes) > 0 {
		t.secondary = make(map[string]map[uint64][]int64, len(schema.Indexes))
		for _, c := range schema.Indexes {
			t.secondary[c] = make(map[uint64][]int64)
		}
	}
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return t.tree.Len() }

// SizeBytes returns the approximate total size of stored rows: the sum of
// their values' datum.Size, the weight the partitioner balances — not the
// bytes the packed representation occupies.
func (t *Table) SizeBytes() int64 { return t.sizeBytes }

// Insert adds a row; the key is taken from the row's key column. It fails
// on a duplicate key, a row of the wrong arity or a non-numeric key; the
// values' kinds are stored as given, not checked against the column types.
func (t *Table) Insert(row Row) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: row arity %d != %d for %q", len(row), len(t.Schema.Columns), t.Schema.Name)
	}
	key, ok := row[t.Schema.keyIdx].AsInt()
	if !ok {
		return fmt.Errorf("storage: non-integer key in %q", t.Schema.Name)
	}
	if !t.tree.insert(key, row) {
		return fmt.Errorf("storage: duplicate key %d in %q", key, t.Schema.Name)
	}
	t.sizeBytes += rowSize(row)
	for col, idx := range t.secondary {
		h := datum.Hash(row[t.Schema.ColIndex(col)])
		idx[h] = append(idx[h], key)
	}
	return nil
}

// Has reports whether a row is stored under key.
func (t *Table) Has(key int64) bool {
	_, _, ok := t.tree.find(key)
	return ok
}

// Get returns a copy of the row under key.
func (t *Table) Get(key int64) (Row, bool) {
	l, i, ok := t.tree.find(key)
	if !ok {
		return nil, false
	}
	r := make(Row, t.tree.ncols)
	t.tree.unpack(l, i, r)
	return r, true
}

// GetInto copies the row under key into dst, which must have one
// element per column, and reports whether the key exists (dst is left
// as it was when not). It is Get into the caller's storage.
func (t *Table) GetInto(key int64, dst Row) bool {
	if len(dst) != t.tree.ncols {
		panic(fmt.Sprintf("storage: GetInto a row of %d columns from %q's %d", len(dst), t.Schema.Name, t.tree.ncols))
	}
	l, i, ok := t.tree.find(key)
	if ok {
		t.tree.unpack(l, i, dst)
	}
	return ok
}

// Update overwrites the row under key (which must exist) in place. The new
// row must keep the same key.
func (t *Table) Update(key int64, row Row) error {
	l, i, ok := t.tree.find(key)
	if !ok {
		return fmt.Errorf("storage: update of missing key %d in %q", key, t.Schema.Name)
	}
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("storage: row arity %d != %d for %q", len(row), len(t.Schema.Columns), t.Schema.Name)
	}
	nk, _ := row[t.Schema.keyIdx].AsInt()
	if nk != key {
		return fmt.Errorf("storage: update may not change key (%d -> %d)", key, nk)
	}
	// An index entry moves only when the column's hash does, and most
	// updates leave indexed columns as they are.
	for col, idx := range t.secondary {
		ci := t.Schema.ColIndex(col)
		old := t.tree.col(l, i, ci)
		if old == row[ci] {
			continue
		}
		if oh, nh := datum.Hash(old), datum.Hash(row[ci]); oh != nh {
			indexRemove(idx, oh, key)
			idx[nh] = append(idx[nh], key)
		}
	}
	t.sizeBytes += rowSize(row) - t.tree.rowBytes(l, i)
	t.tree.pack(l, i, row)
	return nil
}

// Delete removes the row under key, reporting whether it existed.
func (t *Table) Delete(key int64) bool {
	l, i, ok := t.tree.find(key)
	if !ok {
		return false
	}
	for col, idx := range t.secondary {
		indexRemove(idx, datum.Hash(t.tree.col(l, i, t.Schema.ColIndex(col))), key)
	}
	t.sizeBytes -= t.tree.rowBytes(l, i)
	return t.tree.delete(key)
}

// Scan visits rows with keys in [lo, hi] in key order; fn returning false
// stops. Each row is a copy fn may keep or change; the rows of one leaf
// are cut from one allocation, so keeping one keeps its neighbours'
// memory. fn must not write to the table.
func (t *Table) Scan(lo, hi int64, fn func(key int64, row Row) bool) {
	n := t.tree.ncols
	t.tree.runs(lo, hi, func(l *leaf, from, to int) bool {
		block := make(Row, (to-from)*n)
		for i := from; i < to; i++ {
			row := block[:n:n]
			block = block[n:]
			t.tree.unpack(l, i, row)
			if !fn(l.keys[i], row) {
				return false
			}
		}
		return true
	})
}

// ScanAll visits every row in key order, as Scan does.
func (t *Table) ScanAll(fn func(key int64, row Row) bool) {
	t.Scan(minInt64, maxInt64, fn)
}

// ViewAll visits every row in key order without allocating per row: fn
// sees each one in the same buffer, allocated per call (so concurrent
// readers do not share it), which it must not keep past its return.
func (t *Table) ViewAll(fn func(key int64, row Row) bool) {
	row := make(Row, t.tree.ncols)
	t.tree.runs(minInt64, maxInt64, func(l *leaf, from, to int) bool {
		for i := from; i < to; i++ {
			t.tree.unpack(l, i, row)
			if !fn(l.keys[i], row) {
				return false
			}
		}
		return true
	})
}

// ScanKeys visits the keys in [lo, hi] in order, reading no row; fn
// returning false stops.
func (t *Table) ScanKeys(lo, hi int64, fn func(key int64) bool) {
	t.tree.runs(lo, hi, func(l *leaf, from, to int) bool {
		for _, k := range l.keys[from:to] {
			if !fn(k) {
				return false
			}
		}
		return true
	})
}

// ScanAllKeys visits every key in order.
func (t *Table) ScanAllKeys(fn func(key int64) bool) {
	t.ScanKeys(minInt64, maxInt64, fn)
}

// LookupIndex returns the keys of rows whose indexed column equals v.
// The column must be listed in Schema.Indexes.
func (t *Table) LookupIndex(col string, v datum.D) []int64 {
	idx, ok := t.secondary[col]
	if !ok {
		return nil
	}
	ci := t.Schema.ColIndex(col)
	var out []int64
	for _, key := range idx[datum.Hash(v)] {
		if l, i, ok := t.tree.find(key); ok && datum.Equal(t.tree.col(l, i, ci), v) {
			out = append(out, key)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasIndex reports whether col has a secondary index.
func (t *Table) HasIndex(col string) bool {
	_, ok := t.secondary[col]
	return ok
}

// indexRemove drops key from the bucket of hash h.
func indexRemove(idx map[uint64][]int64, h uint64, key int64) {
	keys := idx[h]
	for i, k := range keys {
		if k == key {
			idx[h] = append(keys[:i], keys[i+1:]...)
			break
		}
	}
	if len(idx[h]) == 0 {
		delete(idx, h)
	}
}

func rowSize(r Row) int64 {
	var s int64
	for _, d := range r {
		s += d.Size()
	}
	return s
}

// RowView adapts a stored row to a column-name getter (the Row interface
// of the partition package).
type RowView struct {
	Schema *TableSchema
	Data   Row
}

// Get returns the named column's value (NULL if the column is unknown).
func (v RowView) Get(col string) datum.D {
	i := v.Schema.ColIndex(col)
	if i < 0 || i >= len(v.Data) {
		return datum.NullD
	}
	return v.Data[i]
}

package lookup

import "sort"

// Ranger is implemented by tables that can enumerate their contents in
// ascending key order; Compress relies on it to rebuild a table in a
// different representation.
type Ranger interface {
	Range(f func(key int64, parts []int) bool)
}

// Router bundles the per-table lookup tables of one deployment and is the
// per-statement routing hot path: statement constraints resolve through
// Locate into replica sets. New tables default to the Compact
// representation; Compress re-encodes each finished table into whichever
// representation is smallest for its key distribution.
type Router struct {
	k      int
	tables map[string]Table
}

// NewRouter returns an empty router for k partitions; tables created on
// demand are Compact.
func NewRouter(k int) *Router {
	return &Router{k: k, tables: make(map[string]Table)}
}

// NewRouterFromTables wraps already-built tables in a router.
func NewRouterFromTables(k int, tables map[string]Table) *Router {
	r := NewRouter(k)
	for name, t := range tables {
		r.tables[name] = t
	}
	return r
}

// K returns the partition count.
func (r *Router) K() int { return r.k }

// Table returns the named table, creating it if absent.
func (r *Router) Table(name string) Table {
	t, ok := r.tables[name]
	if !ok {
		t = NewCompact()
		r.tables[name] = t
	}
	return t
}

// Get returns the named table without creating it.
func (r *Router) Get(name string) (Table, bool) {
	t, ok := r.tables[name]
	return t, ok
}

// Put installs (or replaces) a table.
func (r *Router) Put(name string, t Table) { r.tables[name] = t }

// Set records the replica set of one tuple.
func (r *Router) Set(table string, key int64, parts []int) {
	r.Table(table).Set(key, parts)
}

// Locate resolves one tuple; ok=false when the tuple's table or key is
// unknown.
func (r *Router) Locate(table string, key int64) ([]int, bool) {
	t, ok := r.tables[table]
	if !ok {
		return nil, false
	}
	return t.Locate(key)
}

// Names returns the table names in sorted order.
func (r *Router) Names() []string {
	out := make([]string, 0, len(r.tables))
	for n := range r.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// MemoryBytes sums the tables' resident sizes — the routing-metadata
// footprint the paper's App. C.1 capacity analysis is about.
func (r *Router) MemoryBytes() int64 {
	var total int64
	for _, t := range r.tables {
		total += t.MemoryBytes()
	}
	return total
}

// Compress re-encodes every table into its smallest representation.
func (r *Router) Compress() {
	for name, t := range r.tables {
		r.tables[name] = Compress(t)
	}
}

// Compress rebuilds a finished table as Compact or HashIndex, whichever
// is estimated smaller for its contents: Compact pays one slot per key of
// the span its keys cover, HashIndex ~16 bytes per key, so dense keys
// compact and sparse ones, such as the exceptions to a table's rules,
// stay in a map. A table that cannot enumerate itself (no Ranger) is
// returned unchanged, as is any table the estimate cannot beat.
func Compress(t Table) Table {
	src, ok := t.(Ranger)
	if !ok {
		return t
	}
	// One enumeration pass gathers the sizing inputs: key count, dense
	// span, and the dictionary cost of the distinct sets.
	var (
		n           int64
		first, last int64
		dict        setDict
	)
	src.Range(func(key int64, parts []int) bool {
		dict.intern(parts)
		if n == 0 {
			first = key
		}
		last = key
		n++
		return true
	})
	if n == 0 {
		return t
	}
	// The dense span is computed in uint64 (mirroring Compact.affordable):
	// keys near both int64 extremes would wrap an int64 difference and make
	// the Compact estimate spuriously negative. Spans too large for dense
	// storage saturate the estimate so Compact cannot be chosen for them.
	diff := uint64(last) - uint64(first) // exact unsigned difference
	width := uint64(1)
	switch {
	case len(dict.sets) > 0xFFFF-1:
		width = 4
	case len(dict.sets) > 0xFF-1:
		width = 2
	}
	dictBytes := uint64(dict.memoryBytes())
	compactBytes := uint64(1) << 62
	if diff < (uint64(1)<<62)/width {
		compactBytes = (diff+1)*width + dictBytes
	}
	hashBytes := uint64(n)*16 + dictBytes

	var out Table
	if compactBytes <= hashBytes {
		out = NewCompact()
	} else {
		out = NewHashIndex()
	}
	src.Range(func(key int64, parts []int) bool {
		out.Set(key, parts)
		return true
	})
	if c, ok := out.(*Compact); ok {
		c.Trim()
	}
	if out.MemoryBytes() >= t.MemoryBytes() {
		return t
	}
	return out
}

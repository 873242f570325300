package lookup

import "sort"

// Router bundles the per-table lookup tables of one deployment and is the
// per-statement routing hot path: statement constraints resolve through
// Locate into replica sets. Tables created on demand are Compact;
// Compress finishes them once they are built.
type Router struct {
	k      int
	tables map[string]Table
}

// NewRouter returns an empty router for k partitions.
func NewRouter(k int) *Router {
	return &Router{k: k, tables: make(map[string]Table)}
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

// Compress finishes every Compact table of a built deployment in place
// (Compact.Trim): each keeps its keys in slots or in its side map,
// whichever is smaller. A table may still take Sets afterwards.
func (r *Router) Compress() {
	for _, t := range r.tables {
		if c, ok := t.(*Compact); ok {
			c.Trim()
		}
	}
}

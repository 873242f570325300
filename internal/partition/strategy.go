// Package partition defines partitioning/replication strategies (hash,
// full replication, and Lookup: range-predicate rules, with or without
// lookup-table entries for their exceptions) and the cost model
// Schism's validation phase uses to choose among them: the number of
// distributed transactions a strategy induces on a workload trace (§4.4).
package partition

import (
	"slices"
	"unsafe"

	"schism/internal/datum"
	"schism/internal/dtree"
	"schism/internal/lookup"
	"schism/internal/sqlparse"
	"schism/internal/workload"
)

// Row exposes a tuple's column values to predicate-based strategies.
type Row interface {
	// Get returns the value of the named column (NULL if absent).
	Get(column string) datum.D
}

// Resolver fetches the stored row for a tuple id; it returns nil when the
// tuple's contents are unknown (strategies then fall back to key-only
// placement). A resolved row is valid until the resolver's next call: a
// resolver may read each row into scratch it reuses, so one resolver is
// one sequential reader, and a caller that keeps a row's values copies
// them before it resolves again.
type Resolver func(id workload.TupleID) Row

// Route describes where a statement may execute (App. C.2). Its sets are
// read-only, as Locate's: they may be shared with other routes and with
// the strategy itself.
type Route struct {
	// Single lists partitions any ONE of which holds every matching tuple
	// (a read picks one, preferring a partition the transaction already
	// touched). Empty means no single partition suffices.
	Single []int
	// All lists every partition that may hold matching tuples; writes must
	// touch all of them, and reads fall back to all when Single is empty.
	All []int
}

// Strategy places tuples onto partitions, possibly replicated.
type Strategy interface {
	// Name identifies the strategy in reports (e.g. "hashing").
	Name() string
	// Complexity orders strategies for the validation tie-break (§4.4):
	// lower is simpler. Hash and replication are 0, range predicates 1,
	// lookup tables 2.
	Complexity() int
	// NumPartitions returns k.
	NumPartitions() int
	// Locate returns the sorted replica set for a tuple. row may be nil.
	// The set is read-only: it may be shared with other tuples and with
	// the strategy itself.
	Locate(id workload.TupleID, row Row) []int
	// RouteStmt routes a parsed statement's constraints (App. C.2).
	RouteStmt(table string, cons []sqlparse.Constraint, routable bool) Route
}

// Hash partitions each tuple by hashing its key (the paper's baseline).
type Hash struct {
	K int
	// KeyColumn maps table -> name of its key column, so statements with
	// equality predicates on the key route exactly. Optional.
	KeyColumn map[string]string
}

// Name implements Strategy.
func (h *Hash) Name() string { return "hashing" }

// Complexity implements Strategy.
func (h *Hash) Complexity() int { return 0 }

// NumPartitions implements Strategy.
func (h *Hash) NumPartitions() int { return h.K }

// Locate implements Strategy.
func (h *Hash) Locate(id workload.TupleID, _ Row) []int { return onePart(HashPart(id.Key, h.K)) }

// RouteStmt implements Strategy.
func (h *Hash) RouteStmt(table string, cons []sqlparse.Constraint, routable bool) Route {
	col := h.KeyColumn[table]
	if !routable || col == "" {
		return broadcast(h.K)
	}
	for _, c := range cons {
		if c.Table != table || c.Column != col || len(c.Eq) == 0 {
			continue
		}
		var parts []int
		for _, v := range c.Eq {
			parts = union(parts, onePart(int(datum.Hash(v)%uint64(h.K))))
		}
		if len(parts) == 1 {
			return Route{Single: parts, All: parts}
		}
		return Route{All: parts}
	}
	return broadcast(h.K)
}

// FullReplication stores every tuple on every partition: reads are local
// anywhere, writes touch all k partitions.
type FullReplication struct{ K int }

// Name implements Strategy.
func (r *FullReplication) Name() string { return "replication" }

// Complexity implements Strategy.
func (r *FullReplication) Complexity() int { return 0 }

// NumPartitions implements Strategy.
func (r *FullReplication) NumPartitions() int { return r.K }

// Locate implements Strategy.
func (r *FullReplication) Locate(workload.TupleID, Row) []int { return firstParts(r.K) }

// RouteStmt implements Strategy.
func (r *FullReplication) RouteStmt(string, []sqlparse.Constraint, bool) Route {
	all := firstParts(r.K)
	return Route{Single: all, All: all}
}

// RuleNode is one node of a table's placement tree (§4.3). An inner node
// sends a value of Column Left when it passes Op against Value (CondLe
// for a numeric split, CondEq for a categorical one), else Right. A leaf
// holds Parts, the replica set of the rows that reach it.
type RuleNode struct {
	Column      string
	Op          dtree.CondOp
	Value       datum.D
	Left, Right int32
	Parts       []int
}

// goesLeft reports whether the value v of n's column takes n's left side.
func (n *RuleNode) goesLeft(v datum.D) bool {
	if n.Op == dtree.CondEq {
		return datum.Equal(v, n.Value)
	}
	return datum.Compare(v, n.Value) <= 0
}

// sides reports which of n's sides some value that constraint c admits
// can take: each side an equality list's values go to. A range holds a
// value <= Value unless it starts above Value, and a value > Value unless
// it ends at or below it; it holds Value itself, a categorical test's
// left side, only if it also ends at or above Value, and almost always
// some other value.
func (n *RuleNode) sides(c *sqlparse.Constraint) (left, right bool) {
	if len(c.Eq) > 0 {
		for i := range c.Eq {
			if n.goesLeft(c.Eq[i]) {
				left = true
			} else {
				right = true
			}
		}
		return left, right
	}
	left = true
	if c.Lo != nil {
		cmp := datum.Compare(*c.Lo, n.Value)
		left = cmp < 0 || cmp == 0 && !c.LoStrict
	}
	if n.Op == dtree.CondEq {
		if left && c.Hi != nil {
			cmp := datum.Compare(*c.Hi, n.Value)
			left = cmp > 0 || cmp == 0 && !c.HiStrict
		}
		return left, true
	}
	return left, c.Hi == nil || datum.Compare(*c.Hi, n.Value) > 0
}

// TableRules is the predicate-based placement of one table: its decision
// tree, flat. Nodes are stored children first, so the last node is the
// root; a TableRules always has one, and a table without rules has none.
type TableRules struct {
	Nodes []RuleNode
	// Default is the replica set of a row that is not known (a nil row).
	Default []int
}

// Add appends node n to the tree and returns its index. A node's children
// are added before it, and the root last.
func (t *TableRules) Add(n RuleNode) int32 {
	t.Nodes = append(t.Nodes, n)
	return int32(len(t.Nodes) - 1)
}

// Ranges range-partitions a table on an integer column at ascending upper
// bounds, as a balanced tree: partition p holds the values v with
// upper[p-1] < v <= upper[p], and the last, len(upper), every value above.
func Ranges(column string, upper []int64) *TableRules {
	t := &TableRules{}
	var grow func(lo, hi int) int32
	grow = func(lo, hi int) int32 {
		if lo == hi {
			return t.Add(RuleNode{Parts: onePart(lo)})
		}
		mid := (lo + hi) / 2
		left, right := grow(lo, mid), grow(mid+1, hi)
		return t.Add(RuleNode{Column: column, Op: dtree.CondLe, Value: datum.NewInt(upper[mid]), Left: left, Right: right})
	}
	grow(0, len(upper))
	return t
}

// leaf returns the replica set of the leaf row reaches.
func (t *TableRules) leaf(row Row) []int {
	n := &t.Nodes[len(t.Nodes)-1]
	for n.Parts == nil {
		next := n.Right
		if n.goesLeft(row.Get(n.Column)) {
			next = n.Left
		}
		n = &t.Nodes[next]
	}
	return n.Parts
}

// reach descends from node i to every leaf a row of table that satisfies
// the statement's constraints may reach: at each node, to each side that
// every constraint on the node's column admits. It adds each reached
// leaf's set to parts and counts the leaves.
func (t *TableRules) reach(i int32, table string, cons []sqlparse.Constraint, parts []int, leaves int) ([]int, int) {
	n := &t.Nodes[i]
	if n.Parts != nil {
		return union(parts, n.Parts), leaves + 1
	}
	left, right := true, true
	for j := range cons {
		if c := &cons[j]; c.Column == n.Column && c.Table == table {
			l, r := n.sides(c)
			left, right = left && l, right && r
		}
	}
	if left {
		parts, leaves = t.reach(n.Left, table, cons, parts, leaves)
	}
	if right {
		parts, leaves = t.reach(n.Right, table, cons, parts, leaves)
	}
	return parts, leaves
}

// Lookup is the layered placement Schism deploys: the explanation's
// per-table decision-tree rules (§4.3), and per-key lookup-table entries
// (§4.2) for the keys the rules place wrong. A key's home is its entry,
// else the leaf its row reaches in its table's tree, else (for a nil row)
// the table default, else Default, else its key hash. Without a Router it
// is the range-predicate strategy; with one, the lookup-table strategy.
type Lookup struct {
	K      int
	Tables map[string]*TableRules
	// Default is the replica set for tables without rules; nil means
	// key-hash placement (replicate-everywhere, the paper's choice for
	// untouched read-mostly tables, is NOT assumed).
	Default []int
	// Router holds the per-table lookup tables (compressed representations
	// behind the lookup.Table interface); nil means no entries.
	Router *lookup.Router
	// KeyColumn maps table -> key column name for routing.
	KeyColumn map[string]string
}

// Name implements Strategy.
func (l *Lookup) Name() string {
	if l.Router == nil {
		return "range-predicates"
	}
	return "lookup-table"
}

// Complexity implements Strategy: rules alone are 1, rules with entries 2.
func (l *Lookup) Complexity() int {
	if l.Router == nil {
		return 1
	}
	return 2
}

// NumPartitions implements Strategy.
func (l *Lookup) NumPartitions() int { return l.K }

// MemoryBytes reports the routing-metadata footprint (App. C.1): every
// table's tree, its nodes and each distinct leaf set once (leaves with one
// label share one slice), and every lookup table.
func (l *Lookup) MemoryBytes() int64 {
	var n int64
	for _, tr := range l.Tables {
		n += int64(len(tr.Nodes)) * int64(unsafe.Sizeof(RuleNode{}))
		seen := make(map[*int]bool)
		for _, nd := range tr.Nodes {
			if len(nd.Parts) > 0 && !seen[&nd.Parts[0]] {
				seen[&nd.Parts[0]] = true
				n += int64(len(nd.Parts)) * int64(unsafe.Sizeof(0))
			}
		}
	}
	if l.Router != nil {
		n += l.Router.MemoryBytes()
	}
	return n
}

// Locate implements Strategy.
func (l *Lookup) Locate(id workload.TupleID, row Row) []int {
	if l.Router != nil {
		if parts, ok := l.Router.Locate(id.Table, id.Key); ok {
			return parts
		}
	}
	switch tr := l.Tables[id.Table]; {
	case tr == nil:
	case row != nil:
		return tr.leaf(row)
	case tr.Default != nil:
		return tr.Default
	}
	return l.fallback(id.Key)
}

// fallback is the home of a key that no entry and no rule of its table
// places: Default, else the key hash.
func (l *Lookup) fallback(key int64) []int {
	if l.Default != nil {
		return l.Default
	}
	return onePart(HashPart(key, l.K))
}

// RouteStmt implements Strategy. Equality constraints on the key column
// route key by key: the intersection of the keys' routes serves the whole
// read and their union is what writes must touch. A key with an entry
// routes to it; a missed key of a table with rules routes by the rules,
// and of any other table to its one home. Any other statement routes by
// the rules when its table keeps no entries, and broadcasts otherwise. A
// one-key route is the set the key located.
func (l *Lookup) RouteStmt(table string, cons []sqlparse.Constraint, routable bool) Route {
	if !routable {
		return broadcast(l.K)
	}
	var t lookup.Table
	if l.Router != nil {
		t, _ = l.Router.Get(table)
	}
	keyCol := l.KeyColumn[table]
	for _, c := range cons {
		if keyCol == "" || c.Table != table || c.Column != keyCol || len(c.Eq) == 0 {
			continue
		}
		var r Route
		for i, v := range c.Eq {
			k, ok := v.AsInt()
			if !ok {
				return broadcast(l.K)
			}
			var kr Route
			switch parts, hit := entry(t, k); {
			case hit:
				kr = Route{Single: parts, All: parts}
			case l.Tables[table] != nil:
				kr = l.ruleRoute(table, cons)
			default:
				home := l.fallback(k)
				kr = Route{Single: home, All: home}
			}
			if i == 0 {
				r = kr
			} else {
				r.Single, r.All = intersect(r.Single, kr.Single), union(r.All, kr.All)
			}
		}
		return r
	}
	if t == nil {
		return l.ruleRoute(table, cons)
	}
	return broadcast(l.K)
}

// entry is key's entry in t, which may be nil.
func entry(t lookup.Table, key int64) ([]int, bool) {
	if t == nil {
		return nil, false
	}
	return t.Locate(key)
}

// ruleRoute routes by the table's rules alone: the union of the sets of
// the leaves its tree walk reaches (reach), the table default when it
// reaches none, and a broadcast on a table without rules. A statement
// that binds every column its tree tests, as an INSERT does, reaches the
// one leaf its row does.
func (l *Lookup) ruleRoute(table string, cons []sqlparse.Constraint) Route {
	tr := l.Tables[table]
	if tr == nil {
		return broadcast(l.K)
	}
	parts, leaves := tr.reach(int32(len(tr.Nodes)-1), table, cons, nil, 0)
	switch {
	case leaves == 0 && tr.Default != nil:
		return Route{Single: tr.Default, All: tr.Default}
	case leaves == 0:
		return broadcast(l.K)
	case leaves == 1 || len(parts) == 1:
		return Route{Single: parts, All: parts}
	}
	return Route{All: parts}
}

// HashPart is the canonical key-hash fallback placement: the partition a
// tuple lands on when no finer policy covers it. Every layer that
// precomputes Lookup's fallback into a table (core's lookup build, live
// deployment) must use this same function.
func HashPart(key int64, k int) int {
	return int(datum.Hash(datum.NewInt(key)) % uint64(k))
}

func broadcast(k int) Route { return Route{All: firstParts(k)} }

// identity holds 0, 1, 2, …: the replica sets Locate returns for hash and
// full placement are subslices of it, capped so that an append copies
// instead of writing into it. Sets beyond it are allocated.
var identity = func() []int {
	s := make([]int, 256)
	for i := range s {
		s[i] = i
	}
	return s
}()

// onePart returns the read-only replica set {p}.
func onePart(p int) []int {
	if p < len(identity) {
		return identity[p : p+1 : p+1]
	}
	return []int{p}
}

// firstParts returns the read-only replica set {0, …, k-1}.
func firstParts(k int) []int {
	if k <= len(identity) {
		return identity[:k:k]
	}
	return allParts(k)
}

func allParts(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// intersect returns the sorted set a ∩ b of two sorted sets, a itself when
// a ⊆ b. Neither input is written: either may be a strategy's own set.
func intersect(a, b []int) []int {
	if subset(a, b) {
		return a
	}
	var out []int
	for _, p := range a {
		if contains(b, p) {
			out = append(out, p)
		}
	}
	return out
}

// union returns the sorted set a ∪ b of two sorted sets, a or b itself
// when it holds the other. Neither input is written.
func union(a, b []int) []int {
	switch {
	case subset(b, a):
		return a
	case subset(a, b):
		return b
	}
	out := append(append(make([]int, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
}

func subset(a, b []int) bool {
	for _, p := range a {
		if !contains(b, p) {
			return false
		}
	}
	return true
}

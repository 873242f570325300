// Package partition defines partitioning/replication strategies (hash,
// range-predicate, lookup-table, full replication) and the cost model
// Schism's validation phase uses to choose among them: the number of
// distributed transactions a strategy induces on a workload trace (§4.4).
package partition

import (
	"fmt"
	"slices"
	"strings"

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
// placement).
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

// Hash partitions each tuple by hashing its key (the paper's baseline) or,
// when Columns maps the tuple's table to an attribute, by hashing that
// attribute's value (the validation phase's "hash on most frequent
// attribute").
type Hash struct {
	K int
	// Columns optionally maps table -> attribute to hash on. Tables not
	// listed hash on the tuple key. The attribute must functionally
	// determine placement for routing to work (e.g. w_id in TPC-C).
	Columns map[string]string
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
func (h *Hash) Locate(id workload.TupleID, row Row) []int {
	if col, ok := h.Columns[id.Table]; ok && row != nil {
		if v := row.Get(col); !v.IsNull() {
			return onePart(int(datum.Hash(v) % uint64(h.K)))
		}
	}
	return onePart(HashPart(id.Key, h.K))
}

// RouteStmt implements Strategy.
func (h *Hash) RouteStmt(table string, cons []sqlparse.Constraint, routable bool) Route {
	if !routable {
		return broadcast(h.K)
	}
	col, hashByCol := h.Columns[table]
	if !hashByCol {
		col = h.KeyColumn[table]
		if col == "" {
			return broadcast(h.K)
		}
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

// RangeCond is one predicate of a range rule.
type RangeCond struct {
	Column string
	Op     dtree.CondOp
	Value  datum.D
}

// Matches reports whether a row satisfies the condition.
func (c RangeCond) Matches(row Row) bool { return c.admits(row.Get(c.Column)) }

// admits reports whether the value v of c's column satisfies c.
func (c *RangeCond) admits(v datum.D) bool {
	switch c.Op {
	case dtree.CondLe:
		return datum.Compare(v, c.Value) <= 0
	case dtree.CondGt:
		return datum.Compare(v, c.Value) > 0
	case dtree.CondEq:
		return datum.Equal(v, c.Value)
	case dtree.CondNe:
		return !datum.Equal(v, c.Value)
	}
	return false
}

func (c RangeCond) String() string {
	return c.Column + " " + c.Op.String() + " " + c.Value.String()
}

// RangeRule maps a conjunction of predicates to a replica set.
type RangeRule struct {
	Conds []RangeCond
	Parts []int
}

func (r RangeRule) String() string {
	if len(r.Conds) == 0 {
		return fmt.Sprintf("<empty> -> %v", r.Parts)
	}
	ps := make([]string, len(r.Conds))
	for i, c := range r.Conds {
		ps[i] = c.String()
	}
	return fmt.Sprintf("%s -> %v", strings.Join(ps, " AND "), r.Parts)
}

// TableRules is the predicate-based placement of one table.
type TableRules struct {
	Table string
	Rules []RangeRule
	// Default is the replica set for rows matching no rule.
	Default []int
}

// Range is the predicate-based strategy produced by the explanation phase
// (§4.3): per-table decision-tree rules over frequently used attributes.
type Range struct {
	K      int
	Tables map[string]*TableRules
	// Default is the replica set for tables without rules; nil means
	// replicate everywhere (the paper's choice for untouched read-mostly
	// tables) is NOT assumed — key-hash placement is used instead.
	Default []int
}

// Name implements Strategy.
func (r *Range) Name() string { return "range-predicates" }

// Complexity implements Strategy.
func (r *Range) Complexity() int { return 1 }

// NumPartitions implements Strategy.
func (r *Range) NumPartitions() int { return r.K }

// Locate implements Strategy.
func (r *Range) Locate(id workload.TupleID, row Row) []int {
	tr, ok := r.Tables[id.Table]
	if ok && row != nil {
	rules:
		for _, rule := range tr.Rules {
			for _, c := range rule.Conds {
				if !c.Matches(row) {
					continue rules
				}
			}
			return rule.Parts
		}
	}
	if ok && tr.Default != nil {
		return tr.Default
	}
	if r.Default != nil {
		return r.Default
	}
	return onePart(HashPart(id.Key, r.K))
}

// RouteStmt implements Strategy: a rule is a candidate when every one of
// its conditions is consistent with the statement's constraints; the route
// is the union of candidate rules' replica sets.
func (r *Range) RouteStmt(table string, cons []sqlparse.Constraint, routable bool) Route {
	tr, ok := r.Tables[table]
	if !ok || !routable {
		return broadcast(r.K)
	}
	var parts []int
	matched := 0
	for _, rule := range tr.Rules {
		if ruleCompatible(rule, table, cons) {
			matched++
			parts = union(parts, rule.Parts)
		}
	}
	if matched == 0 {
		if tr.Default != nil {
			return Route{Single: tr.Default, All: tr.Default}
		}
		return broadcast(r.K)
	}
	if matched == 1 || len(parts) == 1 {
		return Route{Single: parts, All: parts}
	}
	return Route{All: parts}
}

// ruleCompatible reports whether some tuple could satisfy both the rule's
// conditions and the statement's constraints (a sound over-approximation).
// It walks both lists by index: a constraint and a condition are each
// too large to copy per pair on the routing hot path.
func ruleCompatible(rule RangeRule, table string, cons []sqlparse.Constraint) bool {
	for i := range rule.Conds {
		rc := &rule.Conds[i]
		for j := range cons {
			c := &cons[j]
			if c.Column != rc.Column || c.Table != table {
				continue
			}
			if !condIntersects(rc, c) {
				return false
			}
		}
	}
	return true
}

// condIntersects reports whether constraint c admits any value satisfying
// rule condition rc.
func condIntersects(rc *RangeCond, c *sqlparse.Constraint) bool {
	if len(c.Eq) > 0 {
		for i := range c.Eq {
			if rc.admits(c.Eq[i]) {
				return true
			}
		}
		return false
	}
	// Range constraint [Lo, Hi]: intersect with the rule's half-line.
	switch rc.Op {
	case dtree.CondLe: // rule wants v <= X
		if c.Lo != nil {
			cmp := datum.Compare(*c.Lo, rc.Value)
			if cmp > 0 || (cmp == 0 && c.LoStrict) {
				return false
			}
		}
	case dtree.CondGt: // rule wants v > X; needs the upper bound to exceed X
		if c.Hi != nil && datum.Compare(*c.Hi, rc.Value) <= 0 {
			return false
		}
	case dtree.CondEq:
		if c.Lo != nil {
			cmp := datum.Compare(rc.Value, *c.Lo)
			if cmp < 0 || (cmp == 0 && c.LoStrict) {
				return false
			}
		}
		if c.Hi != nil {
			cmp := datum.Compare(rc.Value, *c.Hi)
			if cmp > 0 || (cmp == 0 && c.HiStrict) {
				return false
			}
		}
	case dtree.CondNe:
		// A range almost always contains a value != X.
	}
	return true
}

// Lookup is the fine-grained per-tuple strategy backed by lookup tables
// (§4.2): the direct output of the graph partitioner. Every key has one
// home: its table entry, else its place under Miss.
type Lookup struct {
	K int
	// Router holds the per-table lookup tables (compressed representations
	// behind the lookup.Table interface) and is the routing hot path.
	Router *lookup.Router
	// Miss places the keys missing from the tables, new tuples above all,
	// as Range.Locate does: the table's first matching rule, else its
	// default, else Miss.Default, else the key hash. Nil is the key hash.
	Miss *Range
	// KeyColumn maps table -> key column name for routing.
	KeyColumn map[string]string
}

// Name implements Strategy.
func (l *Lookup) Name() string { return "lookup-table" }

// MemoryBytes reports the routing-metadata footprint (App. C.1).
func (l *Lookup) MemoryBytes() int64 { return l.Router.MemoryBytes() }

// Complexity implements Strategy.
func (l *Lookup) Complexity() int { return 2 }

// NumPartitions implements Strategy.
func (l *Lookup) NumPartitions() int { return l.K }

// Locate implements Strategy.
func (l *Lookup) Locate(id workload.TupleID, row Row) []int {
	if t, ok := l.Router.Get(id.Table); ok {
		if parts, ok := t.Locate(id.Key); ok {
			return parts
		}
	}
	return l.missLocate(id, row)
}

// missLocate places a key the tables miss.
func (l *Lookup) missLocate(id workload.TupleID, row Row) []int {
	if l.Miss == nil {
		return onePart(HashPart(id.Key, l.K))
	}
	return l.Miss.Locate(id, row)
}

// RouteStmt implements Strategy: equality constraints on the key column
// route key by key; everything else broadcasts. The intersection of the
// keys' routes serves the whole read and their union is what writes must
// touch. A key in the tables routes to its entry, a missing one through
// missRoute. A one-key route is the set the key located.
func (l *Lookup) RouteStmt(table string, cons []sqlparse.Constraint, routable bool) Route {
	keyCol := l.KeyColumn[table]
	if !routable || keyCol == "" {
		return broadcast(l.K)
	}
	t, _ := l.Router.Get(table)
	for _, c := range cons {
		if c.Table != table || c.Column != keyCol || len(c.Eq) == 0 {
			continue
		}
		var r Route
		for i, v := range c.Eq {
			k, ok := v.AsInt()
			if !ok {
				return broadcast(l.K)
			}
			parts, hit := []int(nil), false
			if t != nil {
				parts, hit = t.Locate(k)
			}
			kr := Route{Single: parts, All: parts}
			if !hit {
				kr = l.missRoute(table, k, cons)
			}
			if i == 0 {
				r = kr
			} else {
				r.Single, r.All = intersect(r.Single, kr.Single), union(r.All, kr.All)
			}
		}
		return r
	}
	return broadcast(l.K)
}

// missRoute routes a key the tables miss to where Locate places it. A
// table with rules routes as Miss does: the explanation's rules are the
// leaves of a decision tree, so they never overlap and together cover
// every row, and a statement that binds every rule column, as an INSERT
// does, is compatible with the one rule its row matches. A table without
// rules has one home: Miss.Default, else the key hash.
func (l *Lookup) missRoute(table string, key int64, cons []sqlparse.Constraint) Route {
	if m := l.Miss; m != nil && m.Tables[table] != nil {
		return m.RouteStmt(table, cons, true)
	}
	home := l.missLocate(workload.TupleID{Table: table, Key: key}, nil)
	return Route{Single: home, All: home}
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

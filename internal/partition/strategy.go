// Package partition defines partitioning/replication strategies (hash,
// full replication, and Lookup: range-predicate rules, with or without
// lookup-table entries for their exceptions) and the cost model
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
	Rules []RangeRule
	// Default is the replica set for rows matching no rule.
	Default []int
}

// Lookup is the layered placement Schism deploys: the explanation's
// per-table decision-tree rules (§4.3), and per-key lookup-table entries
// (§4.2) for the keys the rules place wrong. A key's home is its entry,
// else its table's first matching rule, else the table default, else
// Default, else its key hash. Without a Router it is the range-predicate
// strategy; with one, the lookup-table strategy.
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

// MemoryBytes reports the routing-metadata footprint (App. C.1).
func (l *Lookup) MemoryBytes() int64 {
	if l.Router == nil {
		return 0
	}
	return l.Router.MemoryBytes()
}

// Locate implements Strategy.
func (l *Lookup) Locate(id workload.TupleID, row Row) []int {
	if l.Router != nil {
		if parts, ok := l.Router.Locate(id.Table, id.Key); ok {
			return parts
		}
	}
	tr := l.Tables[id.Table]
	if tr == nil {
		return l.fallback(id.Key)
	}
	if row != nil {
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
	if tr.Default != nil {
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

// ruleRoute routes by the table's rules alone: a rule is a candidate when
// every one of its conditions is consistent with the statement's
// constraints, and the route is the union of the candidates' replica
// sets. The explanation's rules are the leaves of a decision tree, so
// they never overlap and together cover every row, and a statement that
// binds every rule column, as an INSERT does, is compatible with the one
// rule its row matches. A table without rules broadcasts.
func (l *Lookup) ruleRoute(table string, cons []sqlparse.Constraint) Route {
	tr := l.Tables[table]
	if tr == nil {
		return broadcast(l.K)
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
		return broadcast(l.K)
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

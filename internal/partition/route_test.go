package partition

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"schism/internal/datum"
	"schism/internal/dtree"
	"schism/internal/lookup"
	"schism/internal/sqlparse"
)

// refRoute is the reference every RouteStmt is held to: the map-based
// semantics, written out with per-key sets. FullReplication routes
// anywhere; Hash routes the union of the constrained key values' hash
// partitions; Lookup, for a statement naming keys, the intersection
// (Single) and union (All) of the keys' routes, a key with an entry
// routing to it and a missed one as refMissRoute says, and for any other
// statement refRuleRoute's on a table without entries.
func refRoute(s Strategy, table string, cons []sqlparse.Constraint, routable bool) Route {
	k := s.NumPartitions()
	everywhere := Route{All: allParts(k)}
	if _, ok := s.(*FullReplication); ok {
		return Route{Single: allParts(k), All: allParts(k)}
	}
	if !routable {
		return everywhere
	}
	switch s := s.(type) {
	case *Hash:
		col := s.KeyColumn[table]
		for _, c := range cons {
			if col == "" || c.Table != table || c.Column != col || len(c.Eq) == 0 {
				continue
			}
			set := map[int]bool{}
			for _, v := range c.Eq {
				set[int(datum.Hash(v)%uint64(k))] = true
			}
			parts := sortedSet(set)
			if len(parts) == 1 {
				return Route{Single: parts, All: parts}
			}
			return Route{All: parts}
		}
	case *Lookup:
		var t lookup.Table
		if s.Router != nil {
			t, _ = s.Router.Get(table)
		}
		col := s.KeyColumn[table]
		for _, c := range cons {
			if col == "" || c.Table != table || c.Column != col || len(c.Eq) == 0 {
				continue
			}
			var inter map[int]bool
			union := map[int]bool{}
			for _, v := range c.Eq {
				key, ok := v.AsInt()
				if !ok {
					return everywhere
				}
				var r Route
				if parts, found := entry(t, key); found {
					r = Route{Single: parts, All: parts}
				} else {
					r = refMissRoute(s, table, key, cons)
				}
				cur := map[int]bool{}
				for _, p := range r.Single {
					cur[p] = true
				}
				for _, p := range r.All {
					union[p] = true
				}
				if inter == nil {
					inter = cur
					continue
				}
				for p := range inter {
					if !cur[p] {
						delete(inter, p)
					}
				}
			}
			return Route{Single: sortedSet(inter), All: sortedSet(union)}
		}
		if t == nil {
			return refRuleRoute(s, table, cons)
		}
	}
	return everywhere
}

// refRuleRoute routes by a Lookup's rules alone: the union of its
// compatible rules' replica sets (Single when one rule matches or the
// union is one partition), its table Default when none does, and
// everywhere on a table without rules.
func refRuleRoute(s *Lookup, table string, cons []sqlparse.Constraint) Route {
	everywhere := Route{All: allParts(s.K)}
	tr := s.Tables[table]
	if tr == nil {
		return everywhere
	}
	set := map[int]bool{}
	matched := 0
	for _, rule := range tr.Rules {
		if ruleCompatible(rule, table, cons) {
			matched++
			for _, p := range rule.Parts {
				set[p] = true
			}
		}
	}
	if matched == 0 {
		if tr.Default != nil {
			return Route{Single: tr.Default, All: tr.Default}
		}
		return everywhere
	}
	parts := sortedSet(set)
	if matched == 1 || len(parts) == 1 {
		return Route{Single: parts, All: parts}
	}
	return Route{All: parts}
}

// refMissRoute routes a key a Lookup's tables miss: a table with rules
// routes by them; any other key lives on the Default, else its key hash.
func refMissRoute(s *Lookup, table string, key int64, cons []sqlparse.Constraint) Route {
	if s.Tables[table] != nil {
		return refRuleRoute(s, table, cons)
	}
	home := []int{HashPart(key, s.K)}
	if s.Default != nil {
		home = s.Default
	}
	return Route{Single: home, All: home}
}

func sortedSet(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// choices draws the small decisions a routing case is built from: from a
// seeded generator, or from a fuzz input (zeros once it is spent).
type choices struct {
	rng *rand.Rand
	b   []byte
}

func (c *choices) intn(n int) int {
	if c.rng != nil {
		return c.rng.Intn(n)
	}
	if len(c.b) == 0 {
		return 0
	}
	v := int(c.b[0]) % n
	c.b = c.b[1:]
	return v
}

// set draws a sorted, duplicate-free, non-empty replica set, the shape
// every Locate set and every configured Default has.
func (c *choices) set(k int) []int {
	var out []int
	for p := 0; p < k; p++ {
		if c.intn(3) == 0 {
			out = append(out, p)
		}
	}
	if out == nil {
		out = []int{c.intn(k)}
	}
	return out
}

// value draws a key value: mostly small integers, some floats (which
// AsInt truncates) and strings (which Lookup cannot resolve).
func (c *choices) value() datum.D {
	switch c.intn(8) {
	case 0:
		return datum.NewFloat(float64(c.intn(24)) - 1.5)
	case 1:
		return datum.NewString(string(rune('a' + c.intn(3))))
	}
	return datum.NewInt(int64(c.intn(24)) - 2)
}

// routeCase is one strategy and one statement to route under it.
type routeCase struct {
	s        Strategy
	table    string
	cons     []sqlparse.Constraint
	routable bool
}

// genRules draws the rules of table t as the explanation learns them:
// the leaves of a decision tree of depth at most two over its key id and
// its column w, so they never overlap and together cover every row (or no
// rules at all), with or without a table Default.
func genRules(c *choices, k int) *TableRules {
	tr := &TableRules{}
	var grow func(conds []RangeCond, depth int)
	grow = func(conds []RangeCond, depth int) {
		if depth == 2 || c.intn(3) == 0 {
			tr.Rules = append(tr.Rules, RangeRule{Conds: conds, Parts: c.set(k)})
			return
		}
		col := "id"
		if c.intn(3) == 0 {
			col = "w"
		}
		v := datum.NewInt(int64(c.intn(20)))
		ops := []dtree.CondOp{dtree.CondLe, dtree.CondGt}
		if c.intn(3) == 0 {
			ops = []dtree.CondOp{dtree.CondEq, dtree.CondNe}
		}
		for _, op := range ops {
			grow(append(slices.Clip(conds), RangeCond{Column: col, Op: op, Value: v}), depth+1)
		}
	}
	if c.intn(5) != 0 {
		grow(nil, 0)
	}
	if c.intn(2) == 0 {
		tr.Default = c.set(k)
	}
	return tr
}

// genLookup draws a Lookup over table t: with or without rules, a
// Default, entries (none: the range-predicate strategy; else up to 30
// over keys 0–19, possibly none) and key columns.
func genLookup(c *choices, k int, keyCols map[string]string) *Lookup {
	l := &Lookup{K: k, KeyColumn: keyCols}
	if c.intn(3) != 0 {
		l.Tables = map[string]*TableRules{"t": genRules(c, k)}
	}
	if c.intn(3) == 0 {
		l.Default = c.set(k)
	}
	if c.intn(3) != 0 {
		idx := lookup.NewHashIndex()
		for i, n := 0, c.intn(30); i < n; i++ {
			idx.Set(int64(c.intn(20)), c.set(k))
		}
		l.Router = lookup.NewRouterFromTables(k, map[string]lookup.Table{"t": idx})
	}
	if c.intn(4) == 0 {
		l.KeyColumn = nil
	}
	return l
}

// genRouteCase builds a FullReplication, Hash or Lookup strategy over
// table t, and a statement on t or on table u, which has a key column but
// no rules or lookup table. Its equality lists hold 1–4 values, repeats
// included, and it may bind w to one value or a range besides.
func genRouteCase(c *choices) routeCase {
	k := 2 + c.intn(7)
	keyCols := map[string]string{"t": "id", "u": "id"}
	var s Strategy
	switch c.intn(4) {
	case 0:
		s = &Hash{K: k, KeyColumn: keyCols}
	case 1:
		s = &FullReplication{K: k}
	default:
		s = genLookup(c, k, keyCols)
	}

	rc := routeCase{s: s, table: "t", routable: c.intn(10) != 0}
	if c.intn(10) == 0 {
		rc.table = "u"
	}
	switch c.intn(4) {
	case 0:
		lo, hi := datum.NewInt(int64(c.intn(20))), datum.NewInt(int64(c.intn(20)))
		rc.cons = append(rc.cons, sqlparse.Constraint{Table: "t", Column: "w", Lo: &lo, Hi: &hi})
	case 1:
		rc.cons = append(rc.cons, sqlparse.Constraint{Table: rc.table, Column: "w", Eq: []datum.D{c.value()}})
	}
	col := "id"
	if c.intn(3) == 0 {
		col = "w"
	}
	eq := make([]datum.D, 1+c.intn(4))
	for i := range eq {
		if i > 0 && c.intn(3) == 0 {
			eq[i] = eq[c.intn(i)] // a repeated key
		} else {
			eq[i] = c.value()
		}
	}
	rc.cons = append(rc.cons, sqlparse.Constraint{Table: rc.table, Column: col, Eq: eq})
	return rc
}

func checkRoute(t *testing.T, rc routeCase) {
	t.Helper()
	got := rc.s.RouteStmt(rc.table, rc.cons, rc.routable)
	want := refRoute(rc.s, rc.table, rc.cons, rc.routable)
	if !slices.Equal(got.Single, want.Single) || !slices.Equal(got.All, want.All) {
		t.Fatalf("%s on %s %+v (routable %v): route %+v, reference %+v",
			rc.s.Name(), rc.table, rc.cons, rc.routable, got, want)
	}
}

// TestRouteStmtMatchesReference holds every strategy's RouteStmt to the
// map-based reference over random strategies and statements.
func TestRouteStmtMatchesReference(t *testing.T) {
	c := &choices{rng: rand.New(rand.NewSource(1))}
	for i := 0; i < 5000; i++ {
		checkRoute(t, genRouteCase(c))
	}
}

// FuzzRouteStmt is TestRouteStmtMatchesReference over fuzzer-chosen
// cases.
func FuzzRouteStmt(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 2, 9, 1, 4, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{5, 1, 4, 1, 2, 0, 3, 2, 1, 1, 0, 7, 7, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRoute(t, genRouteCase(&choices{b: b}))
	})
}

// idw is a row of table t or u: its key id and its column w.
type idw struct{ id, w int64 }

func (r idw) Get(col string) datum.D {
	switch col {
	case "id":
		return datum.NewInt(r.id)
	case "w":
		return datum.NewInt(r.w)
	}
	return datum.D{}
}

// satisfies reports whether a row of table satisfies every constraint
// the statement puts on that table.
func satisfies(table string, cons []sqlparse.Constraint, row Row) bool {
	for i := range cons {
		c := &cons[i]
		if c.Table != table {
			continue
		}
		v := row.Get(c.Column)
		if len(c.Eq) > 0 {
			if !slices.ContainsFunc(c.Eq, func(e datum.D) bool { return datum.Equal(v, e) }) {
				return false
			}
			continue
		}
		if c.Lo != nil {
			if cmp := datum.Compare(v, *c.Lo); cmp < 0 || cmp == 0 && c.LoStrict {
				return false
			}
		}
		if c.Hi != nil {
			if cmp := datum.Compare(v, *c.Hi); cmp > 0 || cmp == 0 && c.HiStrict {
				return false
			}
		}
	}
	return true
}

// checkSound holds a route to the rows it must reach: every row (id, w)
// of a small universe that satisfies the statement sits only on
// partitions in All, and on every partition in Single.
func checkSound(t *testing.T, rc routeCase) {
	t.Helper()
	r := rc.s.RouteStmt(rc.table, rc.cons, rc.routable)
	for id := int64(-3); id <= 22; id++ {
		for w := int64(-3); w <= 22; w++ {
			row := idw{id, w}
			if !satisfies(rc.table, rc.cons, row) {
				continue
			}
			if home := rc.s.Locate(tid(rc.table, id), row); !subset(home, r.All) || !subset(r.Single, home) {
				t.Fatalf("%s on %s %+v (routable %v): route %+v misses row %+v on %v",
					rc.s.Name(), rc.table, rc.cons, rc.routable, r, row, home)
			}
		}
	}
}

// TestRouteCoversMatchingRows holds every strategy's routes to its own
// placement over random strategies and statements: a route reaches every
// row the statement may touch, and a read's Single serves all of them.
func TestRouteCoversMatchingRows(t *testing.T) {
	c := &choices{rng: rand.New(rand.NewSource(2))}
	for i := 0; i < 5000; i++ {
		checkSound(t, genRouteCase(c))
	}
}

// FuzzRouteSound is TestRouteCoversMatchingRows over fuzzer-chosen cases.
func FuzzRouteSound(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 2, 9, 1, 4, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{3, 2, 1, 1, 2, 0, 4, 1, 2, 0, 5, 1, 1, 0, 7, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		checkSound(t, genRouteCase(&choices{b: b}))
	})
}

// TestRouteStmtAllocs pins what routing a point statement costs: a
// one-key equality under Lookup (a hit, and a miss placed by a rule, by a
// Default and by the key hash) or Hash, a statement routed by the rules
// of a table without entries, and a broadcast, return sets the strategy
// already holds.
func TestRouteStmtAllocs(t *testing.T) {
	idx := lookup.NewHashIndex()
	idx.Set(7, []int{1, 3})
	router := lookup.NewRouterFromTables(4, map[string]lookup.Table{"t": idx})
	keyCols := map[string]string{"t": "id"}
	key := func(v int64) []sqlparse.Constraint {
		return []sqlparse.Constraint{{Table: "t", Column: "id", Eq: []datum.D{datum.NewInt(v)}}}
	}
	insert := append(key(8), sqlparse.Constraint{Table: "t", Column: "w", Eq: []datum.D{datum.NewInt(3)}})
	rules := map[string]*TableRules{"t": {Rules: []RangeRule{
		{Conds: []RangeCond{{Column: "w", Op: dtree.CondLe, Value: datum.NewInt(2)}}, Parts: []int{1}},
		{Conds: []RangeCond{{Column: "w", Op: dtree.CondGt, Value: datum.NewInt(2)}}, Parts: []int{2, 3}},
	}}}
	for _, tc := range []struct {
		name     string
		s        Strategy
		cons     []sqlparse.Constraint
		routable bool
	}{
		{"lookup hit", &Lookup{K: 4, Router: router, KeyColumn: keyCols}, key(7), true},
		{"lookup rule miss", &Lookup{K: 4, Router: router, KeyColumn: keyCols, Tables: rules}, insert, true},
		{"lookup default miss", &Lookup{K: 4, Router: router, KeyColumn: keyCols, Default: []int{0, 2}}, key(8), true},
		{"rules without entries", &Lookup{K: 4, KeyColumn: keyCols, Tables: rules}, insert[1:], true},
		{"lookup hash miss", &Lookup{K: 4, Router: router, KeyColumn: keyCols}, key(8), true},
		{"hash", &Hash{K: 4, KeyColumn: keyCols}, key(8), true},
		{"broadcast", &Hash{K: 4, KeyColumn: keyCols}, key(8), false},
	} {
		var route Route
		allocs := testing.AllocsPerRun(200, func() {
			route = tc.s.RouteStmt("t", tc.cons, tc.routable)
		})
		if len(route.Single)+len(route.All) == 0 {
			t.Fatalf("%s: empty route", tc.name)
		}
		if allocs != 0 {
			t.Errorf("%s: RouteStmt allocates %v times, want 0", tc.name, allocs)
		}
	}
}

// TestPreparedRouteAllocs pins the coordinator's per-statement routing cost
// for a one-key SELECT under a lookup strategy, binding as a transaction
// does: the arguments copied into a buffer the statements share, the
// constraints bound into another. Nothing is allocated: not the argument
// list, not the constraints, nothing for parsing, nothing for the route.
func TestPreparedRouteAllocs(t *testing.T) {
	idx := lookup.NewHashIndex()
	for key := int64(0); key < 100; key++ {
		idx.Set(key, []int{int(key % 4), 3})
	}
	var l Strategy = &Lookup{K: 4, KeyColumn: map[string]string{"t": "id"},
		Router: lookup.NewRouterFromTables(4, map[string]lookup.Table{"t": idx})}
	p := sqlparse.MustPrepare("SELECT * FROM t WHERE id = ?")
	var route Route
	own := make([]datum.D, 0, 1)
	buf := make([]sqlparse.Constraint, 0, p.NumConstraints())
	allocs := testing.AllocsPerRun(200, func() {
		args := []datum.D{datum.NewInt(42)}
		own = append(own[:0], args...)
		cons, ok := p.Constraints(buf, own)
		route = l.RouteStmt(p.Table(), cons, ok)
	})
	if len(route.Single) != 2 {
		t.Fatalf("route %+v", route)
	}
	if allocs > 0 {
		t.Errorf("bind + constraints + RouteStmt allocate %v times, want 0", allocs)
	}
}

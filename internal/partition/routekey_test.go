package partition

import (
	"math/rand"
	"slices"
	"testing"

	"schism/internal/datum"
	"schism/internal/lookup"
	"schism/internal/sqlparse"
)

// TestLookupRouteKeyDifferential holds the one-key fast path to the set
// logic it shortcuts: routing `key = k` must equal routing `key IN (k, k)`,
// which still runs the intersection/union maps, over random tables and
// keys under every miss policy (Floating, Default, key hash).
func TestLookupRouteKeyDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 60; round++ {
		k := 2 + rng.Intn(7)
		idx := lookup.NewHashIndex()
		for i, n := 0, rng.Intn(40); i < n; i++ {
			parts := make([]int, 1+rng.Intn(k))
			for j := range parts {
				parts[j] = rng.Intn(k) // unsorted, repeats allowed
			}
			idx.Set(int64(rng.Intn(50)), parts)
		}
		l := &Lookup{K: k, KeyColumn: map[string]string{"t": "id"},
			Router: lookup.NewRouterFromTables(k, map[string]lookup.Table{"t": idx})}
		switch round % 3 {
		case 1:
			l.Floating = true
		case 2:
			l.Default = []int{k - 1, 0, k - 1}
		}
		for key := int64(-5); key < 60; key++ {
			checkRouteKey(t, l, datum.NewInt(key))
		}
		checkRouteKey(t, l, datum.NewFloat(3))
		checkRouteKey(t, l, datum.NewString("x"))
	}
}

func checkRouteKey(t *testing.T, l *Lookup, v datum.D) {
	t.Helper()
	one := l.RouteStmt("t", []sqlparse.Constraint{{Table: "t", Column: "id", Eq: []datum.D{v}}}, true)
	two := l.RouteStmt("t", []sqlparse.Constraint{{Table: "t", Column: "id", Eq: []datum.D{v, v}}}, true)
	if !slices.Equal(one.Single, two.Single) || !slices.Equal(one.All, two.All) {
		t.Fatalf("key %v (floating %v, default %v): fast path %+v, set path %+v", v, l.Floating, l.Default, one, two)
	}
	// The route is the caller's: writing to it must not reach the table.
	for i := range one.All {
		one.All[i] = -1
	}
	if again := l.RouteStmt("t", []sqlparse.Constraint{{Table: "t", Column: "id", Eq: []datum.D{v}}}, true); !slices.Equal(again.All, two.All) {
		t.Fatalf("key %v: route aliases the strategy's storage: %v after a write, want %v", v, again.All, two.All)
	}
}

// TestPreparedRouteAllocs pins the coordinator's per-statement routing cost
// for a one-key SELECT under a lookup strategy: the argument slice, the
// bound constraints and the route — nothing for parsing, no maps.
func TestPreparedRouteAllocs(t *testing.T) {
	idx := lookup.NewHashIndex()
	for key := int64(0); key < 100; key++ {
		idx.Set(key, []int{int(key % 4), 3})
	}
	var l Strategy = &Lookup{K: 4, KeyColumn: map[string]string{"t": "id"},
		Router: lookup.NewRouterFromTables(4, map[string]lookup.Table{"t": idx})}
	p := sqlparse.MustPrepare("SELECT * FROM t WHERE id = ?")
	var route Route
	allocs := testing.AllocsPerRun(200, func() {
		args := []datum.D{datum.NewInt(42)}
		cons, ok := p.Constraints(nil, args)
		route = l.RouteStmt(p.Table(), cons, ok)
	})
	if len(route.Single) != 2 {
		t.Fatalf("route %+v", route)
	}
	if allocs > 3 {
		t.Errorf("bind + constraints + RouteStmt allocate %v times, want <= 3", allocs)
	}
}

package partition

import (
	"slices"
	"testing"
	"unsafe"

	"schism/internal/datum"
	"schism/internal/dtree"
	"schism/internal/lookup"
	"schism/internal/sqlparse"
	"schism/internal/workload"
)

func tid(table string, k int64) workload.TupleID { return workload.TupleID{Table: table, Key: k} }

// mapRow adapts a map to the Row interface.
type mapRow map[string]datum.D

func (m mapRow) Get(c string) datum.D { return m[c] }

func TestHashLocateDeterministic(t *testing.T) {
	h := &Hash{K: 4}
	a := h.Locate(tid("t", 42), nil)
	b := h.Locate(tid("t", 42), nil)
	if len(a) != 1 || a[0] != b[0] {
		t.Fatalf("hash not deterministic: %v %v", a, b)
	}
	if p := a[0]; p < 0 || p >= 4 {
		t.Fatalf("partition %d out of range", p)
	}
}

func TestHashRouting(t *testing.T) {
	h := &Hash{K: 4, KeyColumn: map[string]string{"t": "id"}}
	_, cons, ok := sqlparse.Constraints(sqlparse.MustParse("SELECT * FROM t WHERE id = 42"))
	r := h.RouteStmt("t", cons, ok)
	want := h.Locate(tid("t", 42), nil)[0]
	if len(r.Single) != 1 || r.Single[0] != want {
		t.Errorf("route = %+v, want single partition %d", r, want)
	}
	// Range predicate on key -> broadcast.
	_, cons, ok = sqlparse.Constraints(sqlparse.MustParse("SELECT * FROM t WHERE id < 42"))
	r = h.RouteStmt("t", cons, ok)
	if len(r.All) != 4 || len(r.Single) != 0 {
		t.Errorf("range scan should broadcast: %+v", r)
	}
}

func TestFullReplicationRouting(t *testing.T) {
	fr := &FullReplication{K: 3}
	if got := fr.Locate(tid("t", 1), nil); len(got) != 3 {
		t.Errorf("Locate = %v, want all 3", got)
	}
	r := fr.RouteStmt("t", nil, true)
	if len(r.Single) != 3 {
		t.Errorf("any partition serves a read: %+v", r)
	}
}

func rangeStrategy() *Lookup {
	// The paper's TPC-C rules: s_w_id <= 1 -> {0}; s_w_id > 1 -> {1};
	// item replicated everywhere.
	return &Lookup{
		K: 2,
		Tables: map[string]*TableRules{
			"stock": Ranges("s_w_id", []int64{1}),
			"item":  {Nodes: []RuleNode{{Parts: []int{0, 1}}}},
		},
	}
}

func TestRangeLocate(t *testing.T) {
	r := rangeStrategy()
	if got := r.Locate(tid("stock", 5), mapRow{"s_w_id": datum.NewInt(1)}); len(got) != 1 || got[0] != 0 {
		t.Errorf("w1 -> %v, want [0]", got)
	}
	if got := r.Locate(tid("stock", 6), mapRow{"s_w_id": datum.NewInt(2)}); len(got) != 1 || got[0] != 1 {
		t.Errorf("w2 -> %v, want [1]", got)
	}
	if got := r.Locate(tid("item", 9), mapRow{}); len(got) != 2 {
		t.Errorf("item -> %v, want both", got)
	}
}

func TestRangeRouting(t *testing.T) {
	r := rangeStrategy()
	parse := func(src string) ([]sqlparse.Constraint, bool) {
		_, cons, ok := sqlparse.Constraints(sqlparse.MustParse(src))
		return cons, ok
	}
	cons, ok := parse("SELECT * FROM stock WHERE s_w_id = 1 AND s_i_id = 500")
	route := r.RouteStmt("stock", cons, ok)
	if len(route.Single) != 1 || route.Single[0] != 0 {
		t.Errorf("w=1 route: %+v", route)
	}
	cons, ok = parse("SELECT * FROM stock WHERE s_w_id = 2")
	route = r.RouteStmt("stock", cons, ok)
	if len(route.Single) != 1 || route.Single[0] != 1 {
		t.Errorf("w=2 route: %+v", route)
	}
	// Range over both warehouses hits both rules.
	cons, ok = parse("SELECT * FROM stock WHERE s_w_id >= 1 AND s_w_id <= 2")
	route = r.RouteStmt("stock", cons, ok)
	if len(route.All) != 2 {
		t.Errorf("cross-warehouse route: %+v", route)
	}
	// No constraint on s_w_id -> all rules match -> both partitions.
	cons, ok = parse("SELECT * FROM stock WHERE s_i_id = 3")
	route = r.RouteStmt("stock", cons, ok)
	if len(route.All) != 2 {
		t.Errorf("unconstrained route: %+v", route)
	}
	// Replicated item table: single can be any replica.
	cons, ok = parse("SELECT * FROM item WHERE i_id = 7")
	route = r.RouteStmt("item", cons, ok)
	if len(route.Single) != 2 {
		t.Errorf("item route: %+v", route)
	}
	// OR (unroutable) broadcasts.
	cons, ok = parse("SELECT * FROM stock WHERE s_w_id = 1 OR s_i_id = 2")
	route = r.RouteStmt("stock", cons, ok)
	if len(route.All) != 2 || len(route.Single) != 0 {
		t.Errorf("OR route: %+v", route)
	}
	// Entries for stock, which may place a matching row anywhere, make a
	// statement naming no stock key broadcast; entries for item alone
	// leave stock routed by its rules.
	cons, ok = parse("UPDATE stock SET s_ytd = 1 WHERE s_w_id = 2 AND s_i_id = 7")
	for table, want := range map[string]int{"item": 1, "stock": 2} {
		r.Router = lookup.NewRouter(2)
		r.Router.Table(table)
		if route = r.RouteStmt("stock", cons, ok); len(route.All) != want {
			t.Errorf("entries for %s: stock routes %+v, want %d partitions", table, route, want)
		}
	}
}

func TestLookupStrategy(t *testing.T) {
	router := lookup.NewRouter(2)
	router.Set("t", 1, []int{0})
	router.Set("t", 2, []int{1})
	router.Set("t", 3, []int{0, 1})
	l := &Lookup{K: 2, Router: router, KeyColumn: map[string]string{"t": "id"}}
	if got := l.Locate(tid("t", 3), nil); len(got) != 2 {
		t.Errorf("replicated tuple: %v", got)
	}
	// Unknown key without rules or a Default falls back to hashing.
	got := l.Locate(tid("t", 99), nil)
	if len(got) != 1 {
		t.Errorf("unknown key: %v", got)
	}
	// Unknown key under a Default that is everywhere.
	lAll := &Lookup{K: 2, Router: router, Default: []int{0, 1}}
	if got := lAll.Locate(tid("t", 99), nil); len(got) != 2 {
		t.Errorf("default replica set: %v", got)
	}

	// Routing: IN over keys 1 and 3 -> intersection {0} serves the read.
	_, cons, ok := sqlparse.Constraints(sqlparse.MustParse("SELECT * FROM t WHERE id IN (1, 3)"))
	route := l.RouteStmt("t", cons, ok)
	if len(route.Single) != 1 || route.Single[0] != 0 {
		t.Errorf("IN route single: %+v", route)
	}
	if len(route.All) != 2 {
		t.Errorf("IN route all: %+v", route)
	}
	// Keys 1 and 2 share no partition: no single site.
	_, cons, ok = sqlparse.Constraints(sqlparse.MustParse("SELECT * FROM t WHERE id IN (1, 2)"))
	route = l.RouteStmt("t", cons, ok)
	if len(route.Single) != 0 || len(route.All) != 2 {
		t.Errorf("disjoint IN route: %+v", route)
	}
}

// Cost-model tests use a tiny 2-partition layout:
// tuples 0..9 on partition 0, 10..19 on partition 1, tuple 100 replicated.
func costStrategy() Strategy {
	router := lookup.NewRouter(2)
	for k := int64(0); k < 10; k++ {
		router.Set("t", k, []int{0})
	}
	for k := int64(10); k < 20; k++ {
		router.Set("t", k, []int{1})
	}
	router.Set("t", 100, []int{0, 1})
	return &Lookup{K: 2, Router: router}
}

func TestEvaluateSingleSited(t *testing.T) {
	s := costStrategy()
	tr := workload.NewTrace()
	tr.Add([]workload.Access{{Tuple: tid("t", 1)}, {Tuple: tid("t", 2), Write: true}})   // both p0
	tr.Add([]workload.Access{{Tuple: tid("t", 11)}, {Tuple: tid("t", 12), Write: true}}) // both p1
	c := Evaluate(tr, s, nil)
	if c.Distributed != 0 || c.Total != 2 {
		t.Errorf("cost = %+v, want 0/2 distributed", c)
	}
}

func TestEvaluateDistributed(t *testing.T) {
	s := costStrategy()
	tr := workload.NewTrace()
	tr.Add([]workload.Access{{Tuple: tid("t", 1)}, {Tuple: tid("t", 11)}})                           // read across partitions
	tr.Add([]workload.Access{{Tuple: tid("t", 1), Write: true}, {Tuple: tid("t", 11), Write: true}}) // write across
	c := Evaluate(tr, s, nil)
	if c.Distributed != 2 {
		t.Errorf("cost = %+v, want 2 distributed", c)
	}
}

func TestEvaluateReplicaAware(t *testing.T) {
	s := costStrategy()
	tr := workload.NewTrace()
	// Read of replicated 100 + read of p0 tuple: single-sited via p0 copy.
	tr.Add([]workload.Access{{Tuple: tid("t", 100)}, {Tuple: tid("t", 1)}})
	// Read of replicated 100 + write of p1 tuple: still single-sited (the
	// write pins p1; 100 has a copy there).
	tr.Add([]workload.Access{{Tuple: tid("t", 100)}, {Tuple: tid("t", 11), Write: true}})
	// WRITE of replicated 100 must touch both partitions: distributed.
	tr.Add([]workload.Access{{Tuple: tid("t", 100), Write: true}})
	c := Evaluate(tr, s, nil)
	if c.Distributed != 1 {
		t.Errorf("cost = %+v, want exactly the replicated write distributed", c)
	}
}

func TestEvaluateFullReplication(t *testing.T) {
	fr := &FullReplication{K: 3}
	tr := workload.NewTrace()
	tr.Add([]workload.Access{{Tuple: tid("t", 1)}, {Tuple: tid("t", 2)}}) // read-only: local
	tr.Add([]workload.Access{{Tuple: tid("t", 3), Write: true}})          // write: all 3 sites
	c := Evaluate(tr, fr, nil)
	if c.Distributed != 1 {
		t.Errorf("cost = %+v; reads local, writes distributed", c)
	}
}

func TestEvaluateAssignments(t *testing.T) {
	asg := map[workload.TupleID][]int{
		tid("t", 1): {0},
		tid("t", 2): {0},
		tid("t", 3): {1},
	}
	tr := workload.NewTrace()
	tr.Add([]workload.Access{{Tuple: tid("t", 1)}, {Tuple: tid("t", 2)}})
	tr.Add([]workload.Access{{Tuple: tid("t", 1)}, {Tuple: tid("t", 3)}})
	c := evaluateDense(tr, asg)
	if c.Distributed != 1 {
		t.Errorf("cost = %+v, want 1 distributed", c)
	}
	// An unassigned tuple is unconstrained: even its write follows the
	// transaction.
	tr2 := workload.NewTrace()
	tr2.Add([]workload.Access{{Tuple: tid("t", 1)}, {Tuple: tid("t", 999), Write: true}})
	if c2 := evaluateDense(tr2, asg); c2.Distributed != 0 {
		t.Errorf("unassigned tuple should follow its transaction: %+v", c2)
	}
}

func TestCostDistributedFrac(t *testing.T) {
	c := Cost{Total: 200, Distributed: 30}
	if f := c.DistributedFrac(); f != 0.15 {
		t.Errorf("frac = %f", f)
	}
	if (Cost{}).DistributedFrac() != 0 {
		t.Error("empty cost should be 0")
	}
}

// TestMemoryBytesCountsRules: the routing footprint of a Lookup without
// entries is its trees, every node and each distinct leaf set once, and
// the lookup tables add theirs.
func TestMemoryBytesCountsRules(t *testing.T) {
	l := rangeStrategy()
	// stock: two leaves of one partition and the split; item: one leaf
	// of two.
	node, word := int64(unsafe.Sizeof(RuleNode{})), int64(unsafe.Sizeof(0))
	want := 3*node + 2*word + node + 2*word
	if got := l.MemoryBytes(); got != want {
		t.Errorf("rules alone: MemoryBytes = %d, want %d", got, want)
	}
	// Two leaves that share one set, as an explanation's leaves of one
	// label do, count it once.
	shared := []int{0, 1}
	l.Tables["district"] = &TableRules{Nodes: []RuleNode{
		{Parts: shared}, {Parts: shared},
		{Column: "d_w_id", Op: dtree.CondLe, Value: datum.NewInt(1), Left: 0, Right: 1},
	}}
	want += 3*node + 2*word
	if got := l.MemoryBytes(); got != want {
		t.Errorf("shared leaf set: MemoryBytes = %d, want %d", got, want)
	}
	idx := lookup.NewCompact()
	idx.Set(3, []int{1})
	l.Router = lookup.NewRouter(2)
	l.Router.Put("stock", idx)
	if got := l.MemoryBytes(); got != want+idx.MemoryBytes() {
		t.Errorf("rules and entries: MemoryBytes = %d, want %d", got, want+idx.MemoryBytes())
	}
}

// TestLocateSharedSets pins the key-hash and full-replication sets Locate
// returns to shared, capacity-capped subslices: hash placement, the hash
// fallbacks of Lookup without and with entries, and full replication
// allocate nothing, return the set they always did, and an append to one
// copies instead of changing the next tuple's set. Above the shared
// slice's length the sets are allocated and still right.
func TestLocateSharedSets(t *testing.T) {
	row := mapRow{"s_w_id": datum.NewInt(3)}
	for _, k := range []int{1, 4, 8, 256, 300} {
		router := lookup.NewRouter(k)
		cases := []struct {
			name string
			s    Strategy
			row  Row
			want func(key int64) []int
		}{
			{"hash", &Hash{K: k}, nil, func(key int64) []int { return []int{HashPart(key, k)} }},
			{"range-fallback", &Lookup{K: k}, row, func(key int64) []int { return []int{HashPart(key, k)} }},
			{"lookup-fallback", &Lookup{K: k, Router: router}, nil, func(key int64) []int { return []int{HashPart(key, k)} }},
			{"replication", &FullReplication{K: k}, nil, func(int64) []int { return allParts(k) }},
		}
		for _, tc := range cases {
			for key := int64(0); key < 50; key++ {
				id := tid("stock", key)
				got := tc.s.Locate(id, tc.row)
				if want := tc.want(key); !slices.Equal(got, want) {
					t.Fatalf("k=%d %s: Locate(%d) = %v, want %v", k, tc.name, key, got, want)
				}
				if k > len(identity) {
					continue
				}
				if cap(got) != len(got) {
					t.Fatalf("k=%d %s: Locate(%d) has cap %d, len %d", k, tc.name, key, cap(got), len(got))
				}
				_ = append(got, -1)
				if n := testing.AllocsPerRun(10, func() { tc.s.Locate(id, tc.row) }); n != 0 {
					t.Fatalf("k=%d %s: Locate allocates %v objects, want 0", k, tc.name, n)
				}
			}
		}
	}
	for i, p := range identity {
		if p != i {
			t.Fatalf("shared set slot %d holds %d", i, p)
		}
	}
}

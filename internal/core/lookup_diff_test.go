package core

// Differential tests for the compressed routing path: the pipeline's
// lookup strategy (Compact/Runs tables chosen by lookup.Compress) must
// make routing decisions identical to a HashIndex-backed strategy with
// the same contents — per-tuple placement, per-statement routes, and
// validation-phase costs.

import (
	"reflect"
	"testing"

	"schism/internal/lookup"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// hashBackedCopy rebuilds a lookup strategy with every table re-encoded
// into the seed's HashIndex representation.
func hashBackedCopy(t *testing.T, l *partition.Lookup) *partition.Lookup {
	t.Helper()
	tables := make(map[string]lookup.Table)
	for _, name := range l.Router.Names() {
		tbl, _ := l.Router.Get(name)
		rng, ok := tbl.(lookup.Ranger)
		if !ok {
			t.Fatalf("table %s (%T) cannot enumerate", name, tbl)
		}
		h := lookup.NewHashIndex()
		rng.Range(func(key int64, parts []int) bool {
			h.Set(key, parts)
			return true
		})
		tables[name] = h
	}
	return &partition.Lookup{
		K:         l.K,
		Router:    lookup.NewRouterFromTables(l.K, tables),
		Miss:      l.Miss,
		KeyColumn: l.KeyColumn,
	}
}

func diffRouting(t *testing.T, w *workloads.Workload, res *Result) {
	t.Helper()
	l := res.Lookup
	ref := hashBackedCopy(t, l)

	// Per-tuple placement: every stored key, plus probes around and far
	// outside each table's range, must resolve identically.
	for _, name := range l.Router.Names() {
		tbl, _ := l.Router.Get(name)
		probes := []int64{-1, 0, 1 << 40}
		tbl.(lookup.Ranger).Range(func(key int64, _ []int) bool {
			probes = append(probes, key, key+1)
			return true
		})
		for _, key := range probes {
			id := workload.TupleID{Table: name, Key: key}
			got := l.Locate(id, nil)
			want := ref.Locate(id, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Locate(%s:%d) = %v, hash-backed %v", name, key, got, want)
			}
		}
	}

	// Per-statement routing over the workload's actual SQL.
	stmts := 0
	for _, txn := range w.Trace.Txns {
		for _, sql := range txn.SQL {
			stmt, err := sqlparse.Parse(sql)
			if err != nil {
				continue
			}
			table, cons, ok := sqlparse.Constraints(stmt)
			got := l.RouteStmt(table, cons, ok)
			want := ref.RouteStmt(table, cons, ok)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RouteStmt(%q) = %+v, hash-backed %+v", sql, got, want)
			}
			stmts++
		}
	}
	if stmts == 0 {
		t.Fatal("no SQL statements exercised")
	}

	// Validation-phase cost on the held-out trace.
	_, test := w.Trace.Split(0.5)
	if got, want := partition.Evaluate(test, l, w.Resolver()), partition.Evaluate(test, ref, w.Resolver()); got != want {
		t.Fatalf("cost %+v, hash-backed %+v", got, want)
	}

	// The compressed tables must actually be smaller than the hash-backed
	// equivalent (the point of the representation change).
	if lm, hm := l.Router.MemoryBytes(), ref.Router.MemoryBytes(); lm >= hm {
		t.Errorf("compressed router %d bytes >= hash-backed %d bytes", lm, hm)
	}
}

// TestCompressedRoutingMatchesHashIndexTPCC: write-heavy workload with a
// database, so untraced and new tuples alike get the explanation's rules.
func TestCompressedRoutingMatchesHashIndexTPCC(t *testing.T) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: 20, Items: 120, InitialOrders: 8, Txns: cut(2000, 1000), Seed: 21,
	})
	res := runPipeline(t, w, 2, Options{Seed: 7})
	diffRouting(t, w, res)
}

// TestCompressedRoutingMatchesHashIndexEpinions: read-mostly workload with
// replicated tuples, exercising multi-replica interned sets.
func TestCompressedRoutingMatchesHashIndexEpinions(t *testing.T) {
	w := workloads.Epinions(workloads.EpinionsConfig{
		Users: 200, Items: 100, Communities: 2, Txns: cut(2000, 1200), Seed: 5,
	})
	res := runPipeline(t, w, 2, Options{Seed: 3})
	diffRouting(t, w, res)
}

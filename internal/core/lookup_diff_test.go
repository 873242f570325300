package core

// Differential test for the exceptions-only lookup tables: beside the
// explanation's rules, the pipeline's tables keep only the traced tuples
// the rules place wrong, and the strategy must make the same routing
// decisions as one whose tables hold every traced tuple —
// per-tuple placement, per-statement routes on every table that keeps
// entries (a table without any routes by its rules, never wider), and
// validation-phase costs.

import (
	"reflect"
	"slices"
	"testing"

	"schism/internal/lookup"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// fullTables rebuilds a result's lookup strategy with an entry for every
// traced tuple, its graph placement, beside every entry the strategy
// already holds, its tables finished as the pipeline finishes its own.
func fullTables(res *Result) *partition.Lookup {
	l := res.Lookup
	ref := lookup.NewRouter(l.K)
	for _, name := range l.Router.Names() {
		tbl, _ := l.Router.Get(name)
		dst := ref.Table(name)
		tbl.(*lookup.Compact).Range(func(key int64, parts []int) bool {
			dst.Set(key, parts)
			return true
		})
	}
	for d, id := range res.Tuples {
		ref.Set(id.Table, id.Key, res.Assignments[d])
	}
	ref.Compress()
	return &partition.Lookup{K: l.K, Tables: l.Tables, Default: l.Default, Router: ref, KeyColumn: l.KeyColumn}
}

// entries counts the keys a router's tables hold.
func entries(r *lookup.Router) int {
	n := 0
	for _, name := range r.Names() {
		tbl, _ := r.Get(name)
		n += tbl.(*lookup.Compact).Len()
	}
	return n
}

func diffExceptions(t *testing.T, w *workloads.Workload, res *Result) {
	t.Helper()
	l := res.Lookup
	ref := fullTables(res)
	resolve := w.Resolver()

	// Per-tuple placement: every traced tuple and every stored row, each
	// with its row.
	locate := func(id workload.TupleID, row partition.Row) {
		if got, want := l.Locate(id, row), ref.Locate(id, row); !reflect.DeepEqual(got, want) {
			t.Fatalf("Locate(%s:%d) = %v, full tables %v", id.Table, id.Key, got, want)
		}
	}
	for _, id := range res.Tuples {
		locate(id, resolve(id))
	}
	for _, name := range w.DB.TableNames() {
		tbl := w.DB.Table(name)
		tbl.ViewAll(func(key int64, row storage.Row) bool {
			locate(workload.TupleID{Table: name, Key: key}, storage.RowView{Schema: tbl.Schema, Data: row})
			return true
		})
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
			_, kept := l.Router.Get(table)
			switch {
			case kept && !reflect.DeepEqual(got, want):
				t.Fatalf("RouteStmt(%q) = %+v, full tables %+v", sql, got, want)
			case slices.ContainsFunc(got.All, func(p int) bool { return !slices.Contains(want.All, p) }):
				t.Fatalf("RouteStmt(%q) = %+v, wider than the full tables' %+v", sql, got, want)
			}
			stmts++
		}
	}
	if stmts == 0 {
		t.Fatal("no SQL statements exercised")
	}

	// Validation-phase cost on the held-out trace.
	_, test := w.Trace.Split(trainFrac)
	if got, want := partition.Evaluate(test, l, resolve), partition.Evaluate(test, ref, resolve); got != want {
		t.Fatalf("cost %+v, full tables %+v", got, want)
	}

	// Dropping the entries the rules repeat is the point of the build.
	// Entries, not bytes: tables that keep every entry (keyRouted) can
	// cost about the same in either layout.
	le, fe := entries(l.Router), entries(ref.Router)
	if le >= fe {
		t.Errorf("exception tables hold %d entries >= full tables' %d", le, fe)
	}
	t.Logf("entries %d of %d, %d bytes against %d", le, fe, l.MemoryBytes(), ref.MemoryBytes())
}

// TestExceptionsRouteAsFullTables: TPC-C is write-heavy with a database,
// so untraced and new tuples alike get the explanation's rules, and
// every table drops the entries its rules repeat. Epinions is
// read-mostly and replicates tuples; its trace updates reviews and trust
// by key alone, so with rules those tables keep every entry (at k = 10
// they have rules). YCSB-E's rules test the key itself.
func TestExceptionsRouteAsFullTables(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    func() *workloads.Workload
		k    int
		seed int64
	}{
		{"tpcc-2w", func() *workloads.Workload {
			return workloads.TPCC(workloads.TPCCConfig{
				Warehouses: 2, Customers: 20, Items: 120, InitialOrders: 8, Txns: cut(2000, 1000), Seed: 21,
			})
		}, 2, 7},
		{"epinions-k2", func() *workloads.Workload {
			return workloads.Epinions(workloads.EpinionsConfig{
				Users: 200, Items: 100, Communities: 2, Txns: cut(2000, 1200), Seed: 5,
			})
		}, 2, 3},
		{"epinions-k10", func() *workloads.Workload {
			return workloads.Epinions(workloads.EpinionsConfig{
				Users: 400, Items: 200, Communities: 10, Txns: cut(2000, 1200), Seed: 5,
			})
		}, 10, 3},
		{"ycsb-e", func() *workloads.Workload {
			return workloads.YCSBE(workloads.YCSBConfig{Rows: 2000, Txns: cut(2000, 1000), MaxScan: 20, Seed: 5})
		}, 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.w()
			diffExceptions(t, w, runPipeline(t, w, tc.k, Options{Seed: tc.seed}))
		})
	}
}

// TestRulesRouteTablesWithoutEntries: a statement that does not name its
// key routes by the rules on a table that keeps no entries. Every TPC-C
// district row sits where the rules put it, so the trace's district
// UPDATE, which names the warehouse and the district but not d_key,
// reaches the one group holding its warehouse's districts instead of
// every group.
func TestRulesRouteTablesWithoutEntries(t *testing.T) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: 20, Items: 120, InitialOrders: 8, Txns: cut(2000, 1000), Seed: 21,
	})
	res := runPipeline(t, w, 2, Options{Seed: 7})
	l := res.Lookup
	if _, kept := l.Router.Get("district"); kept || l.Tables["district"] == nil {
		t.Fatalf("district keeps entries (%v) or has no rules: %v", kept, res.RuleStrings["district"])
	}
	_, cons, ok := sqlparse.Constraints(sqlparse.MustParse(
		"UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = 2 AND d_id = 6"))
	route := l.RouteStmt("district", cons, ok)
	if len(route.All) != 1 || !slices.Equal(route.Single, route.All) {
		t.Fatalf("district UPDATE routes %+v, want one group", route)
	}
	tbl := w.DB.Table("district")
	wCol := tbl.Schema.ColIndex("d_w_id")
	tbl.ViewAll(func(key int64, data storage.Row) bool {
		if data[wCol].I == 2 {
			id := workload.TupleID{Table: "district", Key: key}
			if home := l.Locate(id, storage.RowView{Schema: tbl.Schema, Data: data}); !slices.Equal(home, route.All) {
				t.Errorf("district %d of warehouse 2 on %v, the UPDATE routes to %v", key, home, route.All)
			}
		}
		return true
	})
}

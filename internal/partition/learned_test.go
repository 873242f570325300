package partition_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"schism/internal/core"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// learnedCase is one core.Run configuration whose trees are checked.
type learnedCase struct {
	name  string
	w     *workloads.Workload
	hyper bool
	opts  core.Options
}

// learnedCases is core's answer-digest matrix: TPC-C at 2 and 8
// warehouses, Epinions and RANDOM under k ∈ {2, 8} × clique/hypergraph ×
// {plain, coalesce, transaction sampling at 0.5, no replication}, plus
// YCSB-A, YCSB-E and TPC-E plain under k ∈ {2, 8} × clique/hypergraph.
// -short keeps, as the digest does, every workload's plain clique and
// coalesced hypergraph configurations at k = 2.
func learnedCases() []learnedCase {
	wls := []struct {
		name     string
		w        *workloads.Workload
		variants bool
	}{
		{"tpcc2w", workloads.TPCC(workloads.TPCCConfig{Warehouses: 2, Customers: 30, Items: 200, InitialOrders: 10, Txns: 1600, Seed: 42}), true},
		{"tpcc8w", workloads.TPCC(workloads.TPCCConfig{Warehouses: 8, Customers: 20, Items: 200, InitialOrders: 8, Txns: 3000, Seed: 5}), true},
		{"epinions", workloads.Epinions(workloads.EpinionsConfig{Users: 300, Items: 150, Communities: 8, Txns: 2000, Seed: 7}), true},
		{"random", workloads.Random(workloads.RandomConfig{Rows: 4000, Txns: 2000, Seed: 9}), true},
		{"ycsb-a", workloads.YCSBA(workloads.YCSBConfig{Rows: 2000, Txns: 1000, Seed: 1}), false},
		{"ycsb-e", workloads.YCSBE(workloads.YCSBConfig{Rows: 2000, Txns: 1000, MaxScan: 20, Seed: 2}), false},
		{"tpce", workloads.TPCE(workloads.TPCEConfig{Customers: 150, Securities: 80, Txns: 2000, Seed: 6}), false},
	}
	variants := []struct {
		name string
		set  func(*core.Options)
	}{
		{"plain", func(*core.Options) {}},
		{"coalesce", func(o *core.Options) { o.Graph.Coalesce = true }},
		{"sample0.5", func(o *core.Options) { o.Graph.TxnSampleRate = 0.5 }},
		{"norepl", func(o *core.Options) { o.DisableReplication = true }},
	}
	var out []learnedCase
	for _, w := range wls {
		for _, k := range []int{2, 8} {
			for _, hyper := range []bool{false, true} {
				kind := map[bool]string{false: "clique", true: "hyper"}[hyper]
				for i, v := range variants {
					if i > 0 && !w.variants {
						break
					}
					name := fmt.Sprintf("%s/k%d/%s/%s", w.name, k, kind, v.name)
					if testing.Short() && !shortCase(name) {
						continue
					}
					opts := core.Options{Partitions: k, Seed: 11}
					v.set(&opts)
					out = append(out, learnedCase{name, w.w, hyper, opts})
				}
			}
		}
	}
	return out
}

// shortCase keeps, under -short, every workload's plain clique and
// coalesced hypergraph configurations at k = 2, as core's digest does.
func shortCase(name string) bool {
	return strings.Contains(name, "/k2/clique/plain") || strings.Contains(name, "/k2/hyper/coalesce")
}

// TestLearnedCasesMatchDigest keeps learnedCases in step with core's
// answer-digest matrix, which it copies by hand: its names must be the
// configurations of core's answer golden, in order, and under -short the
// ones shortCase keeps.
func TestLearnedCasesMatchDigest(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "answer.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got []string
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if name, _, _ := strings.Cut(line, " "); !testing.Short() || shortCase(name) {
			want = append(want, name)
		}
	}
	for _, c := range learnedCases() {
		got = append(got, c.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("learnedCases names\n%s\ncore's answer golden\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// stmt is one trace statement's routing input.
type stmt struct {
	sql, table string
	cons       []sqlparse.Constraint
	ok         bool
}

// parseTrace parses each distinct statement of a trace once.
func parseTrace(tr *workload.Trace) []stmt {
	var out []stmt
	seen := make(map[string]bool)
	for _, txn := range tr.Txns {
		for _, sql := range txn.SQL {
			if seen[sql] {
				continue
			}
			seen[sql] = true
			parsed, err := sqlparse.Parse(sql)
			if err != nil {
				continue
			}
			table, cons, ok := sqlparse.Constraints(parsed)
			out = append(out, stmt{sql, table, cons, ok})
		}
	}
	return out
}

// TestLearnedTreesMatchLeafWalk holds the tree walks to the leaf-walk
// reference on every tree core.Run learns over its answer-digest matrix:
// RouteStmt of every statement of the trace under the rules alone, and
// Locate of every stored row with that row under the rules alone and
// under the rules with their exceptions.
func TestLearnedTreesMatchLeafWalk(t *testing.T) {
	tables := 0
	parsed := make(map[*workloads.Workload][]stmt)
	for _, c := range learnedCases() {
		res, err := core.Run(core.Input{
			Trace:      c.w.Trace,
			Resolver:   c.w.Resolver(),
			KeyColumns: c.w.KeyColumns,
			DB:         c.w.DB,
			Hyper:      c.hyper,
		}, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Range == nil {
			continue
		}
		tables += len(res.Range.Tables)
		if parsed[c.w] == nil {
			parsed[c.w] = parseTrace(c.w.Trace)
		}
		for _, s := range parsed[c.w] {
			got, want := res.Range.RouteStmt(s.table, s.cons, s.ok), partition.RefRoute(res.Range, s.table, s.cons, s.ok)
			if !slices.Equal(got.Single, want.Single) || !slices.Equal(got.All, want.All) {
				t.Fatalf("%s: RouteStmt(%q) = %+v, leaf walk %+v", c.name, s.sql, got, want)
			}
		}
		for _, l := range []*partition.Lookup{res.Range, res.Lookup} {
			checkLocate(t, c.name+"/"+l.Name(), c.w.DB, l)
		}
	}
	if tables == 0 {
		t.Fatal("no learned tree checked")
	}
}

func checkLocate(t *testing.T, name string, db *storage.Database, l *partition.Lookup) {
	t.Helper()
	for table := range l.Tables {
		tbl := db.Table(table)
		tbl.ViewAll(func(key int64, data storage.Row) bool {
			id, row := workload.TupleID{Table: table, Key: key}, storage.RowView{Schema: tbl.Schema, Data: data}
			if got, want := l.Locate(id, row), partition.RefLocate(l, id, row); !slices.Equal(got, want) {
				t.Fatalf("%s: Locate(%s:%d) = %v, leaf walk %v", name, table, key, got, want)
			}
			return true
		})
	}
}

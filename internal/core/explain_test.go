package core

import (
	"strconv"
	"testing"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
)

// TestCoveredTableExplained: a table whose every stored row is a training
// tuple, as TPC-C's warehouse is, is explained without the
// cross-validation guard. Here 60 rows lie in runs of two that cycle over
// ten partitions; a held-out row's run has only one other row to learn
// from, so cross-validation rejects the tree. With the database the table
// is covered and every row is placed exactly; without it, or with one
// stored row the trace never touched, the table is dropped.
func TestCoveredTableExplained(t *testing.T) {
	const n, k = 60, 10
	label := func(i int) int { return i / 2 % k }
	row := func(key int64) partition.Row {
		return rowFunc(func(string) datum.D { return datum.NewInt(key) })
	}
	run := func(stored int) map[string]*partition.TableRules {
		db := storage.NewDatabase()
		tbl := db.MustCreateTable(&storage.TableSchema{Name: "w", Key: "w_id",
			Columns: []storage.Column{{Name: "w_id", Type: storage.IntCol}}})
		for i := 0; i < stored; i++ {
			if err := tbl.Insert(storage.Row{datum.NewInt(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		tr := workload.NewTrace()
		res := &Result{K: k, RuleStrings: map[string][]string{}}
		for i := 0; i < n; i++ {
			id := workload.TupleID{Table: "w", Key: int64(i)}
			tr.Add([]workload.Access{{Tuple: id}}, "SELECT * FROM w WHERE w_id = "+strconv.Itoa(i))
			res.Tuples = append(res.Tuples, id)
			res.Assignments = append(res.Assignments, []int{label(i)})
		}
		in := Input{Trace: tr, DB: db, Resolver: func(id workload.TupleID) partition.Row { return row(id.Key) }}
		if stored == 0 {
			in.DB = nil
		}
		return explain(res, tr, new(sqlparse.ColumnMemo), in, Options{Partitions: k}.withDefaults())
	}
	rules := run(n)
	if rules["w"] == nil {
		t.Fatal("covered table not explained")
	}
	r := &partition.Lookup{K: k, Tables: rules}
	for i := 0; i < n; i++ {
		if got := r.Locate(workload.TupleID{Table: "w", Key: int64(i)}, row(int64(i))); len(got) != 1 || got[0] != label(i) {
			t.Fatalf("row %d placed on %v, want [%d]", i, got, label(i))
		}
	}
	for _, stored := range []int{0, n + 1} {
		if r := run(stored); r != nil {
			t.Errorf("%d stored rows, %d traced: table explained, want it dropped", stored, n)
		}
	}
}

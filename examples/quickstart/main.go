// Quickstart: run the Schism pipeline on the paper's running example — the
// five-tuple bank account table of Figures 2 and 3 — and print the graph,
// the partitioning, and the derived predicate rules.
package main

import (
	"fmt"

	"schism/internal/core"
	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
)

func main() {
	// The account table from Figure 2.
	db := storage.NewDatabase()
	accounts := db.MustCreateTable(&storage.TableSchema{
		Name: "account",
		Columns: []storage.Column{
			{Name: "id", Type: storage.IntCol},
			{Name: "name", Type: storage.StringCol},
			{Name: "bal", Type: storage.IntCol},
		},
		Key: "id",
	})
	for _, r := range []struct {
		id   int64
		name string
		bal  int64
	}{
		{1, "carlo", 80000}, {2, "evan", 60000}, {3, "sam", 129000},
		{4, "eugene", 29000}, {5, "yang", 12000},
	} {
		if err := accounts.Insert(storage.Row{
			datum.NewInt(r.id), datum.NewString(r.name), datum.NewInt(r.bal),
		}); err != nil {
			panic(err)
		}
	}

	// The four transactions of Figure 2, repeated to give the partitioner
	// a workload worth of evidence.
	acct := func(id int64) workload.TupleID { return workload.TupleID{Table: "account", Key: id} }
	tr := workload.NewTrace()
	for i := 0; i < 50; i++ {
		// Transfer carlo -> evan.
		tr.Add([]workload.Access{{Tuple: acct(1), Write: true}, {Tuple: acct(2), Write: true}},
			"UPDATE account SET bal = bal - 1000 WHERE id = 1",
			"UPDATE account SET bal = bal + 1000 WHERE id = 2")
		// Bonus for everyone below 100k.
		tr.Add([]workload.Access{
			{Tuple: acct(1), Write: true}, {Tuple: acct(2), Write: true},
			{Tuple: acct(4), Write: true}, {Tuple: acct(5), Write: true},
		}, "UPDATE account SET bal = bal + 1000 WHERE bal < 100000")
		// Read 1 and 3 together.
		tr.Add([]workload.Access{{Tuple: acct(1)}, {Tuple: acct(3)}},
			"SELECT * FROM account WHERE id IN (1, 3)")
		// Update 2, read 5.
		tr.Add([]workload.Access{{Tuple: acct(2), Write: true}, {Tuple: acct(5)}},
			"UPDATE account SET bal = 60000 WHERE id = 2",
			"SELECT * FROM account WHERE id = 5")
	}

	resolver := func(id workload.TupleID) partition.Row {
		r, ok := accounts.Get(id.Key)
		if !ok {
			return nil
		}
		return storage.RowView{Schema: accounts.Schema, Data: r}
	}

	res, err := core.Run(core.Input{
		Trace:      tr,
		Resolver:   resolver,
		KeyColumns: map[string]string{"account": "id"},
		DB:         db,
	}, core.Options{
		Partitions: 2,
		Seed:       1,
		// Five tuples are too few to balance replication stars; plain
		// per-tuple partitioning demonstrates the pipeline more clearly.
		DisableReplication: true,
	})
	if err != nil {
		panic(err)
	}

	fmt.Println("=== Schism on the Figure 2/3 bank example ===")
	fmt.Print(res.Report())
	fmt.Println("per-tuple placement (cf. Figure 3's lookup table):")
	for id := int64(1); id <= 5; id++ {
		fmt.Printf("  tuple %d -> partitions %v\n", id, res.Lookup.Locate(acct(id), nil))
	}
	fmt.Printf("recommended strategy: %s\n", res.ChosenName)
}

package workloads

import (
	"math/rand"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
)

// SimplecountConfig parameterises the §3 microbenchmark: a two-column
// table read two rows at a time by 150 closed-loop clients.
type SimplecountConfig struct {
	// Rows is the table size (the paper uses 150k: 1k per client).
	Rows int
	// Partitions is the number of range partitions (row r lives on
	// partition r / (Rows/Partitions)).
	Partitions int
}

// SimplecountSchema returns the simplecount table schema.
func SimplecountSchema() *storage.TableSchema {
	return &storage.TableSchema{
		Name: "simplecount",
		Columns: []storage.Column{
			{Name: "id", Type: storage.IntCol},
			{Name: "counter", Type: storage.IntCol},
		},
		Key: "id",
	}
}

// SimplecountDB builds the whole table, ids 0 to Rows-1 with a zero
// counter; cluster.Deploy splits it by SimplecountStrategy.
func SimplecountDB(cfg SimplecountConfig) *storage.Database {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable(SimplecountSchema())
	for id := 0; id < cfg.Rows; id++ {
		if err := tbl.Insert(storage.Row{datum.NewInt(int64(id)), datum.NewInt(0)}); err != nil {
			panic(err)
		}
	}
	return db
}

// SimplecountStrategy range-partitions ids evenly (used by the router).
func SimplecountStrategy(cfg SimplecountConfig) partition.Strategy {
	per := cfg.Rows / cfg.Partitions
	rules := make([]partition.RangeRule, 0, cfg.Partitions)
	for p := 0; p < cfg.Partitions; p++ {
		r := partition.RangeRule{Parts: []int{p}}
		if p > 0 {
			r.Conds = append(r.Conds, partition.RangeCond{Column: "id", Op: condGt, Value: datum.NewInt(int64(p*per - 1))})
		}
		if p < cfg.Partitions-1 {
			r.Conds = append(r.Conds, partition.RangeCond{Column: "id", Op: condLe, Value: datum.NewInt(int64((p+1)*per - 1))})
		}
		rules = append(rules, r)
	}
	return &partition.Lookup{
		K:      cfg.Partitions,
		Tables: map[string]*partition.TableRules{"simplecount": {Rules: rules}},
	}
}

// Simplecount builds the workload bundle (for pipeline experiments; the
// Fig. 1 experiment drives the cluster with SimplecountStream).
func Simplecount(cfg SimplecountConfig, txns int, seed int64) *Workload {
	rng := rand.New(rand.NewSource(seed))
	tr := workload.NewTrace()
	var text txnText
	for i := 0; i < txns; i++ {
		a := rng.Int63n(int64(cfg.Rows))
		b := rng.Int63n(int64(cfg.Rows))
		text.add("SELECT * FROM simplecount WHERE id = %d", a)
		text.add("SELECT * FROM simplecount WHERE id = %d", b)
		tr.Add(
			[]workload.Access{
				{Tuple: workload.TupleID{Table: "simplecount", Key: a}},
				{Tuple: workload.TupleID{Table: "simplecount", Key: b}},
			},
			text.take()...,
		)
	}
	return &Workload{
		Name:       "SIMPLECOUNT",
		DB:         SimplecountDB(cfg),
		Trace:      tr,
		KeyColumns: map[string]string{"simplecount": "id"},
	}
}

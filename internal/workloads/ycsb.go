package workloads

import (
	"math/rand"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/zipf"
)

// YCSBConfig parameterises the YCSB generators (App. D.1).
type YCSBConfig struct {
	// Rows is the usertable size (paper: 100k).
	Rows int
	// Txns is the trace length (paper: 10k).
	Txns int
	// MaxScan bounds YCSB-E scan lengths (paper App. D: uniform 1-100).
	MaxScan int
	Seed    int64
}

func (c YCSBConfig) withDefaults() YCSBConfig {
	if c.Rows <= 0 {
		c.Rows = 100000
	}
	if c.Txns <= 0 {
		c.Txns = 10000
	}
	if c.MaxScan <= 0 {
		c.MaxScan = 100
	}
	return c
}

func ycsbSchema() *storage.TableSchema {
	return &storage.TableSchema{
		Name: "usertable",
		Columns: []storage.Column{
			{Name: "ycsb_key", Type: storage.IntCol},
			{Name: "field0", Type: storage.StringCol},
		},
		Key: "ycsb_key",
	}
}

func ycsbDB(cfg YCSBConfig) *storage.Database {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable(ycsbSchema())
	for i := 0; i < cfg.Rows; i++ {
		if err := tbl.Insert(storage.Row{datum.NewInt(int64(i)), datum.NewString("v")}); err != nil {
			panic(err)
		}
	}
	return db
}

// YCSBA builds Workload A: a 50/50 read/update mix on single tuples chosen
// with a (scrambled) Zipfian distribution. Every transaction touches one
// tuple, so any non-replicated strategy achieves zero distributed
// transactions; the point of the experiment is that validation picks plain
// hashing (§6.1).
func YCSBA(cfg YCSBConfig) *Workload {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := zipf.NewScrambled(rng, uint64(cfg.Rows), zipf.YCSBTheta)
	tr := workload.NewTrace()
	var text txnText
	for i := 0; i < cfg.Txns; i++ {
		key := int64(gen.Next())
		write := rng.Intn(2) == 0
		if write {
			text.add("UPDATE usertable SET field0 = 'u' WHERE ycsb_key = %d", key)
		} else {
			text.add("SELECT * FROM usertable WHERE ycsb_key = %d", key)
		}
		tr.Add([]workload.Access{{Tuple: workload.TupleID{Table: "usertable", Key: key}, Write: write}}, text.take()...)
	}
	return &Workload{
		Name:       "YCSB-A",
		DB:         ycsbDB(cfg),
		Trace:      tr,
		KeyColumns: map[string]string{"usertable": "ycsb_key"},
		Manual: func(k int) partition.Strategy {
			return &partition.Hash{K: k, KeyColumn: map[string]string{"usertable": "ycsb_key"}}
		},
	}
}

// YCSBE builds Workload E: 95% short range scans, 5% single-tuple updates.
// Scans make hash partitioning ineffective; range partitioning (and hence
// Schism's explanation phase) is required (§6.1).
func YCSBE(cfg YCSBConfig) *Workload {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := zipf.New(rng, uint64(cfg.Rows), zipf.YCSBTheta)
	tr := workload.NewTrace()
	var text txnText
	for i := 0; i < cfg.Txns; i++ {
		start := int64(gen.Next())
		if rng.Intn(100) < 95 {
			length := int64(1 + rng.Intn(cfg.MaxScan))
			end := start + length - 1
			if end >= int64(cfg.Rows) {
				end = int64(cfg.Rows) - 1
			}
			acc := make([]workload.Access, 0, end-start+1)
			for k := start; k <= end; k++ {
				acc = append(acc, workload.Access{Tuple: workload.TupleID{Table: "usertable", Key: k}})
			}
			text.add("SELECT * FROM usertable WHERE ycsb_key BETWEEN %d AND %d", start, end)
			tr.Add(acc, text.take()...)
		} else {
			text.add("UPDATE usertable SET field0 = 'u' WHERE ycsb_key = %d", start)
			tr.Add(
				[]workload.Access{{Tuple: workload.TupleID{Table: "usertable", Key: start}, Write: true}},
				text.take()...,
			)
		}
	}
	return &Workload{
		Name:       "YCSB-E",
		DB:         ycsbDB(cfg),
		Trace:      tr,
		KeyColumns: map[string]string{"usertable": "ycsb_key"},
		Manual:     func(k int) partition.Strategy { return ycsbRangeManual(cfg.Rows, k) },
	}
}

// ycsbRangeManual is the hand-built equal-width range partitioning a DBA
// would choose for scan workloads.
func ycsbRangeManual(rows, k int) partition.Strategy {
	per := rows / k
	rules := make([]partition.RangeRule, 0, k)
	for p := 0; p < k; p++ {
		r := partition.RangeRule{Parts: []int{p}}
		if p > 0 {
			r.Conds = append(r.Conds, partition.RangeCond{Column: "ycsb_key", Op: condGt, Value: datum.NewInt(int64(p*per - 1))})
		}
		if p < k-1 {
			r.Conds = append(r.Conds, partition.RangeCond{Column: "ycsb_key", Op: condLe, Value: datum.NewInt(int64((p+1)*per - 1))})
		}
		rules = append(rules, r)
	}
	return &partition.Lookup{
		K:      k,
		Tables: map[string]*partition.TableRules{"usertable": {Rules: rules}},
	}
}

// RandomConfig parameterises the adversarial Random workload (App. D.5).
type RandomConfig struct {
	// Rows is the table size (paper: 1M).
	Rows int
	// Txns is the trace length.
	Txns int
	Seed int64
}

// Random builds the "impossible" workload: each transaction updates two
// tuples chosen uniformly at random. No locality exists; the pipeline must
// fall back to hash partitioning (§6.1).
func Random(cfg RandomConfig) *Workload {
	if cfg.Rows <= 0 {
		cfg.Rows = 1000000
	}
	if cfg.Txns <= 0 {
		cfg.Txns = 10000
	}
	db := storage.NewDatabase()
	tbl := db.MustCreateTable(&storage.TableSchema{
		Name: "rnd",
		Columns: []storage.Column{
			{Name: "id", Type: storage.IntCol},
			{Name: "val", Type: storage.IntCol},
		},
		Key: "id",
	})
	for i := 0; i < cfg.Rows; i++ {
		if err := tbl.Insert(storage.Row{datum.NewInt(int64(i)), datum.NewInt(0)}); err != nil {
			panic(err)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := workload.NewTrace()
	var text txnText
	for i := 0; i < cfg.Txns; i++ {
		a := rng.Int63n(int64(cfg.Rows))
		b := rng.Int63n(int64(cfg.Rows))
		text.add("UPDATE rnd SET val = val + 1 WHERE id = %d", a)
		text.add("UPDATE rnd SET val = val + 1 WHERE id = %d", b)
		tr.Add(
			[]workload.Access{
				{Tuple: workload.TupleID{Table: "rnd", Key: a}, Write: true},
				{Tuple: workload.TupleID{Table: "rnd", Key: b}, Write: true},
			},
			text.take()...,
		)
	}
	return &Workload{
		Name:       "RANDOM",
		DB:         db,
		Trace:      tr,
		KeyColumns: map[string]string{"rnd": "id"},
		Manual: func(k int) partition.Strategy {
			return &partition.Hash{K: k, KeyColumn: map[string]string{"rnd": "id"}}
		},
	}
}

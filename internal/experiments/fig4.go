package experiments

import (
	"fmt"
	"io"

	"schism/internal/core"
	"schism/internal/graph"
	"schism/internal/partition"
	"schism/internal/workloads"
)

// Fig4Row is one of the nine experiments of Figure 4.
type Fig4Row struct {
	Dataset    string
	Partitions int
	Coverage   float64 // traced tuples / database tuples

	Schism      float64 // graph partitioner output (lookup tables)
	Range       float64 // explanation phase (range predicates); NaN-like -1 if none
	Manual      float64 // best-known manual strategy; -1 if none
	Replication float64
	Hashing     float64
	Chosen      string
}

// fig4Case describes one experiment.
type fig4Case struct {
	name  string
	k     int
	build func(s Scale) *workloads.Workload
	opts  func(o *core.Options, s Scale)
}

func fig4Cases() []fig4Case {
	return []fig4Case{
		{
			name: "YCSB-A", k: 2,
			build: func(s Scale) *workloads.Workload {
				return workloads.YCSBA(workloads.YCSBConfig{
					Rows: s.scaled(100000, 5000), Txns: s.scaled(10000, 2000), Seed: 1,
				})
			},
		},
		{
			name: "YCSB-E", k: 2,
			build: func(s Scale) *workloads.Workload {
				return workloads.YCSBE(workloads.YCSBConfig{
					Rows: s.scaled(10000, 4000), Txns: s.scaled(8000, 1500),
					MaxScan: s.scaled(50, 20), Seed: 2,
				})
			},
		},
		{
			name: "TPCC-2W", k: 2,
			build: func(s Scale) *workloads.Workload {
				return workloads.TPCC(workloads.TPCCConfig{
					Warehouses: 2, Customers: s.scaled(100, 30), Items: s.scaled(1000, 200),
					InitialOrders: s.scaled(20, 10), Txns: s.scaled(20000, 2500), Seed: 3,
				})
			},
		},
		{
			name: "TPCC-2W sampled", k: 2,
			build: func(s Scale) *workloads.Workload {
				return workloads.TPCC(workloads.TPCCConfig{
					Warehouses: 2, Customers: s.scaled(100, 30), Items: s.scaled(1000, 200),
					InitialOrders: s.scaled(20, 10), Txns: s.scaled(20000, 2500), Seed: 4,
				})
			},
			opts: func(o *core.Options, _ Scale) {
				// Stress-test robustness to sampling (§6.1): use a fraction
				// of the transactions and cap the decision-tree training
				// set at 250 tuples per table, as the paper does.
				o.Graph.TxnSampleRate = 0.25
				o.TrainTuplesPerTable = 250
			},
		},
		{
			name: "TPCC-50W", k: 10,
			build: func(s Scale) *workloads.Workload {
				return workloads.TPCC(workloads.TPCCConfig{
					Warehouses: 50, Customers: s.scaled(20, 20), Items: s.scaled(500, 200),
					InitialOrders: s.scaled(5, 4), Txns: s.scaled(25000, 12000), Seed: 5,
				})
			},
			opts: func(o *core.Options, s Scale) {
				// The paper samples the 50-warehouse run (1% of tuples,
				// 150k txns of trace); sampling needs a large enough trace
				// to survive, so it applies only at full scale (§6.2: the
				// minimum graph size grows with database size and
				// partition count).
				if !s.Quick {
					o.Graph.TxnSampleRate = 0.5
				}
			},
		},
		{
			name: "TPC-E", k: 10,
			build: func(s Scale) *workloads.Workload {
				return workloads.TPCE(workloads.TPCEConfig{
					Customers: s.scaled(600, 200), Securities: s.scaled(300, 100),
					Txns: s.scaled(15000, 4000), Seed: 6,
				})
			},
		},
		{
			name: "EPINIONS 2p", k: 2,
			build: func(s Scale) *workloads.Workload {
				return workloads.Epinions(workloads.EpinionsConfig{
					Users: s.scaled(1000, 400), Items: s.scaled(500, 200),
					Communities: 8, Txns: s.scaled(15000, 6000), Seed: 7,
				})
			},
		},
		{
			name: "EPINIONS 10p", k: 10,
			build: func(s Scale) *workloads.Workload {
				return workloads.Epinions(workloads.EpinionsConfig{
					Users: s.scaled(1000, 400), Items: s.scaled(500, 200),
					Communities: 10, Txns: s.scaled(15000, 6000), Seed: 8,
				})
			},
		},
		{
			name: "RANDOM", k: 10,
			build: func(s Scale) *workloads.Workload {
				return workloads.Random(workloads.RandomConfig{
					Rows: s.scaled(50000, 10000), Txns: s.scaled(10000, 2000), Seed: 9,
				})
			},
		},
	}
}

// Fig4 runs the nine partitioning-quality experiments and reports the
// fraction of distributed transactions per strategy, plus the validation
// phase's final choice.
func Fig4(s Scale) []Fig4Row {
	var rows []Fig4Row
	for _, c := range fig4Cases() {
		rows = append(rows, runFig4Case(c, s))
	}
	return rows
}

// Fig4Case runs a single named experiment (used by focused benchmarks).
func Fig4Case(name string, s Scale) (Fig4Row, error) {
	for _, c := range fig4Cases() {
		if c.name == name {
			return runFig4Case(c, s), nil
		}
	}
	return Fig4Row{}, fmt.Errorf("experiments: unknown Fig4 case %q", name)
}

func runFig4Case(c fig4Case, s Scale) Fig4Row {
	w := c.build(s)
	opts := core.Options{
		Partitions: c.k,
		Seed:       99,
		Graph:      graph.Options{Coalesce: true},
	}
	if c.opts != nil {
		c.opts(&opts, s)
	}
	res, err := core.Run(core.Input{
		Trace:      w.Trace,
		Resolver:   w.Resolver(),
		KeyColumns: w.KeyColumns,
		DB:         w.DB,
	}, opts)
	if err != nil {
		panic(err)
	}
	_, test := w.Trace.Split(0.5)
	stored := 0
	for _, id := range res.Tuples {
		if tbl := w.DB.Table(id.Table); tbl != nil {
			if _, ok := tbl.Get(id.Key); ok {
				stored++
			}
		}
	}
	row := Fig4Row{
		Dataset:     w.Name,
		Partitions:  c.k,
		Coverage:    float64(stored) / float64(max(1, w.DB.NumTuples())),
		Schism:      res.Costs["lookup-table"].DistributedFrac(),
		Range:       -1,
		Manual:      -1,
		Replication: res.Costs["replication"].DistributedFrac(),
		Hashing:     res.Costs["hashing"].DistributedFrac(),
		Chosen:      res.ChosenName,
	}
	if cst, ok := res.Costs["range-predicates"]; ok {
		row.Range = cst.DistributedFrac()
	}
	if w.Manual != nil {
		row.Manual = partition.Evaluate(test, w.Manual(c.k), w.Resolver()).DistributedFrac()
	}
	if c.name == "TPCC-2W sampled" {
		row.Dataset = "TPCC-2W (sampled)"
	}
	return row
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// PrintFig4 renders the Fig. 4 comparison.
func PrintFig4(w io.Writer, rows []Fig4Row) {
	fmt.Fprintln(w, "Figure 4: distributed transactions by strategy (lower is better)")
	var out [][]string
	for _, r := range rows {
		rg, man := "-", "-"
		if r.Range >= 0 {
			rg = pct(r.Range)
		}
		if r.Manual >= 0 {
			man = pct(r.Manual)
		}
		out = append(out, []string{
			r.Dataset,
			fmt.Sprintf("%d", r.Partitions),
			pct(r.Coverage),
			pct(r.Schism),
			rg,
			man,
			pct(r.Replication),
			pct(r.Hashing),
			r.Chosen,
		})
	}
	table(w, []string{"dataset", "parts", "coverage", "schism", "range", "manual", "replication", "hashing", "chosen"}, out)
}

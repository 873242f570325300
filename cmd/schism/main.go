// Command schism runs the Schism partitioning pipeline on one of the
// built-in benchmark workloads and prints the recommended strategy, the
// learned predicate rules, and the per-strategy distributed-transaction
// costs:
//
//	schism -workload tpcc -partitions 2
//	schism -workload epinions -partitions 10
//	schism -workload ycsb-a|ycsb-e|tpce|random [-partitions k] [-seed n]
//
// Tuning flags expose the §5.1 graph heuristics the pipeline implements
// (-txn-sample, -no-coalesce), the replication ablation, and -hyper,
// which swaps the clique expansion for the hypergraph-native
// representation (one net per transaction, partitioned on the
// connectivity metric).
//
// The online-repartitioning loop, the warm-start comparison and the
// end-to-end strategy comparison run from cmd/experiments
// (experiments -run drift|adapt|bench).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"schism/internal/core"
	"schism/internal/graph"
	"schism/internal/workloads"
)

func main() {
	name := flag.String("workload", "tpcc", "workload: tpcc|tpce|ycsb-a|ycsb-e|epinions|random")
	k := flag.Int("partitions", 2, "number of partitions")
	seed := flag.Int64("seed", 42, "random seed")
	txns := flag.Int("txns", 0, "trace length (0 = workload default)")
	warehouses := flag.Int("warehouses", 2, "TPC-C warehouses")
	txnSample := flag.Float64("txn-sample", 0, "transaction-level sampling rate (0/1 = off)")
	noReplication := flag.Bool("no-replication", false, "disable replicated-tuple expansion")
	noCoalesce := flag.Bool("no-coalesce", false, "disable tuple coalescing")
	hyper := flag.Bool("hyper", false, "use the hypergraph-native representation (one net per transaction, connectivity-metric partitioning) instead of the clique expansion")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "schism: unexpected argument %q (drift, adapt and bench run as experiments -run NAME)\n", flag.Arg(0))
		os.Exit(2)
	}

	var w *workloads.Workload
	switch strings.ToLower(*name) {
	case "tpcc":
		w = workloads.TPCC(workloads.TPCCConfig{Warehouses: *warehouses, Txns: *txns, Seed: *seed})
	case "tpce":
		w = workloads.TPCE(workloads.TPCEConfig{Txns: *txns, Seed: *seed})
	case "ycsb-a":
		w = workloads.YCSBA(workloads.YCSBConfig{Txns: *txns, Seed: *seed})
	case "ycsb-e":
		w = workloads.YCSBE(workloads.YCSBConfig{Txns: *txns, Seed: *seed})
	case "epinions":
		w = workloads.Epinions(workloads.EpinionsConfig{Txns: *txns, Seed: *seed})
	case "random":
		w = workloads.Random(workloads.RandomConfig{Txns: *txns, Seed: *seed})
	default:
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}

	res, err := core.Run(core.Input{
		Trace:      w.Trace,
		Resolver:   w.Resolver(),
		KeyColumns: w.KeyColumns,
		DB:         w.DB,
		Hyper:      *hyper,
	}, core.Options{
		Partitions:         *k,
		Seed:               *seed,
		DisableReplication: *noReplication,
		Graph: graph.Options{
			TxnSampleRate: *txnSample,
			Coalesce:      !*noCoalesce,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "schism:", err)
		os.Exit(1)
	}
	fmt.Printf("workload %s, %d tuples in db, %d txns in trace\n", w.Name, w.DB.NumTuples(), w.Trace.Len())
	fmt.Print(res.Report())
	fmt.Printf("recommended strategy: %s\n", res.ChosenName)
}

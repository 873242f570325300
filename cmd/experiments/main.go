// Command experiments regenerates the tables and figures of the Schism
// paper's evaluation (§3, §6):
//
//	experiments -run fig1    # price of distribution (Fig. 1)
//	experiments -run fig4    # partitioning quality, 9 workloads (Fig. 4)
//	experiments -run fig5    # partitioner scalability (Fig. 5)
//	experiments -run fig6    # TPC-C end-to-end throughput scaling (Fig. 6)
//	experiments -run table1  # graph sizes (Table 1)
//	experiments -run hyper   # hypergraph vs clique expansion comparison
//	experiments -run drift    # online repartitioning under workload drift
//	experiments -run adapt    # warm-start vs full-cut repartitioning cycles
//	experiments -run bench    # end-to-end strategy-comparison benchmark
//	experiments -run failover # availability through a leader crash vs R
//	experiments -run all
//
// -scale N multiplies dataset sizes (1 = laptop defaults); -quick shrinks
// them for smoke runs. -obs addr serves the current run's metrics
// registry over HTTP (JSON snapshot at /metrics, expvar at /debug/vars,
// pprof at /debug/pprof/) while the experiments execute.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"schism/internal/experiments"
	"schism/internal/obs"
)

func main() {
	run := flag.String("run", "all", "which experiment: fig1|fig4|fig5|fig6|table1|hyper|drift|adapt|bench|failover|all")
	scale := flag.Int("scale", 1, "dataset scale factor")
	quick := flag.Bool("quick", false, "tiny datasets for smoke runs")
	obsAddr := flag.String("obs", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	if *obsAddr != "" {
		addr, err := obs.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "obs:", err)
			os.Exit(1)
		}
		fmt.Printf("observability endpoint on http://%s/metrics\n", addr)
	}

	s := experiments.Scale{Factor: *scale, Quick: *quick}
	which := strings.ToLower(*run)
	ran := false
	do := func(name string, f func()) {
		if which == "all" || which == name {
			f()
			fmt.Println()
			ran = true
		}
	}
	fail := func(name string, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, name+":", err)
			os.Exit(1)
		}
	}
	do("fig1", func() {
		rows, err := experiments.Fig1(s)
		fail("fig1", err)
		experiments.PrintFig1(os.Stdout, rows)
	})
	do("fig4", func() { experiments.PrintFig4(os.Stdout, experiments.Fig4(s)) })
	do("fig5", func() {
		ks := []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
		if *quick {
			ks = []int{2, 8, 32}
		}
		experiments.PrintFig5(os.Stdout, experiments.Fig5(ks, s))
	})
	do("fig6", func() {
		rows, err := experiments.Fig6(s)
		fail("fig6", err)
		experiments.PrintFig6(os.Stdout, rows)
	})
	do("table1", func() { experiments.PrintTable1(os.Stdout, experiments.Table1(s)) })
	do("hyper", func() {
		ks := []int{2, 8, 64}
		if *quick {
			ks = []int{2, 8}
		}
		experiments.PrintHyper(os.Stdout, experiments.Hyper(ks, s))
	})
	do("bench", func() {
		res, err := experiments.Bench(experiments.BenchConfig{Obs: true}, s)
		fail("bench", err)
		experiments.PrintBench(os.Stdout, res)
	})
	do("failover", func() {
		rows, err := experiments.Failover(s)
		fail("failover", err)
		experiments.PrintFailover(os.Stdout, rows)
	})
	do("drift", func() {
		for _, sc := range []string{"ycsb", "tpcc"} {
			res, err := experiments.Drift(sc, s)
			fail("drift", err)
			experiments.PrintDrift(os.Stdout, res)
			fmt.Println()
		}
	})
	do("adapt", func() {
		for _, sc := range []string{"ycsb", "tpcc"} {
			res, err := experiments.Adapt(sc, s)
			fail("adapt", err)
			experiments.PrintAdapt(os.Stdout, res)
			fmt.Println()
		}
	})
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§3, §6): the price-of-distribution microbenchmark (Fig. 1),
// the nine partitioning-quality experiments (Fig. 4), partitioner
// scalability (Fig. 5), end-to-end TPC-C throughput scaling (Fig. 6), and
// the graph-size table (Table 1).
//
// Scale: the paper ran on an 8-node cluster with databases of up to 25M
// tuples; this package defaults to laptop-scale parameters that preserve
// every structural property (transaction mixes, multi-warehouse fractions,
// community structure, contention) and exposes a Scale knob to grow them.
package experiments

import (
	"fmt"
	"io"
	"text/tabwriter"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/partition"
	"schism/internal/storage"
)

// Scale multiplies the default dataset sizes (1 = laptop defaults).
type Scale struct {
	// Factor scales row counts and trace lengths (default 1).
	Factor int
	// Quick further shrinks runs for use inside unit tests/benchmarks.
	Quick bool
}

func (s Scale) factor() int {
	if s.Factor <= 0 {
		return 1
	}
	return s.Factor
}

// scaled returns base*Factor, or the quick value when Quick is set.
func (s Scale) scaled(base, quick int) int {
	if s.Quick {
		return quick
	}
	return base * s.factor()
}

// deployAndRun stands db up under strat (cluster.Deploy), drives it with
// stream and closes the cluster.
func deployAndRun(cfg cluster.Config, db *storage.Database, strat partition.Strategy, dcfg driver.Config, stream driver.StreamMaker) (*driver.Result, error) {
	c, co, err := cluster.Deploy(cfg, db, strat)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return driver.Run(co, dcfg, stream), nil
}

// table renders rows with aligned columns.
func table(w io.Writer, header []string, rows [][]string) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for i, h := range header {
		if i > 0 {
			fmt.Fprint(tw, "\t")
		}
		fmt.Fprint(tw, h)
	}
	fmt.Fprintln(tw)
	for _, r := range rows {
		for i, c := range r {
			if i > 0 {
				fmt.Fprint(tw, "\t")
			}
			fmt.Fprint(tw, c)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

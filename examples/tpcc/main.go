// Example tpcc: partition TPC-C with Schism, then run the live workload on
// a simulated shared-nothing cluster partitioned by the strategy it chose —
// the end-to-end flow of §6.3. It exits non-zero if any transaction of
// the run failed:
//
//	go run ./examples/tpcc -duration 200ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"schism/internal/cluster"
	"schism/internal/core"
	"schism/internal/datum"
	"schism/internal/driver"
	"schism/internal/sqlparse"
	"schism/internal/workloads"
)

func main() {
	warehouses := flag.Int("warehouses", 4, "TPC-C warehouses")
	k := flag.Int("partitions", 2, "partitions / cluster nodes")
	duration := flag.Duration("duration", time.Second, "load duration")
	flag.Parse()

	// 1. Capture a trace and run the pipeline.
	cfg := workloads.TPCCConfig{
		Warehouses: *warehouses, Customers: 60, Items: 500, InitialOrders: 10, Txns: 6000,
	}
	w := workloads.TPCC(cfg)
	res, err := core.Run(core.Input{
		Trace:      w.Trace,
		Resolver:   w.Resolver(),
		KeyColumns: w.KeyColumns,
		DB:         w.DB,
	}, core.Options{Partitions: *k, Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Println("=== pipeline ===")
	fmt.Print(res.Report())

	// 2. Deploy the strategy validation chose: the router consults it,
	// and every node is loaded with exactly the rows it places there.
	c, co, err := cluster.Deploy(cluster.Config{
		Nodes:        *k,
		ServiceTime:  10 * time.Microsecond,
		NetworkDelay: 100 * time.Microsecond,
	}, w.DB, res.Chosen)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	// 3. Drive the live five-transaction mix: closed-loop clients, each
	// drawing from its own deterministic stream. Every statement carries
	// both the surrogate key and the warehouse predicate, so it routes
	// under whichever strategy was chosen.
	fmt.Println("=== live cluster run ===")
	r := driver.Run(co, driver.Config{Clients: 4 * *k, Measure: *duration, Seed: 7}, workloads.TPCCStream(cfg))
	fmt.Println(r)
	if r.Failed > 0 {
		fmt.Fprintf(os.Stderr, "%d transactions failed\n", r.Failed)
		os.Exit(1)
	}

	// 4. Query the result. A statement issued more than once is prepared
	// once and bound per call: after MustPrepare nothing is parsed again,
	// on the coordinator or on the nodes (the load above runs the same
	// way, from the statements in internal/workloads/stmts.go).
	stockOf := sqlparse.MustPrepare("SELECT s_quantity, s_ytd FROM stock WHERE s_w_id = ? AND s_i_id = ?")
	if _, _, err := co.RunTxn(func(t *cluster.Txn) error {
		for item := int64(0); item < 3; item++ {
			rows, err := t.ExecPrepared(stockOf, datum.NewInt(1), datum.NewInt(item))
			if err != nil {
				return err
			}
			fmt.Printf("warehouse 1, item %d: quantity %v, sold %v\n", item, rows[0][0], rows[0][1])
		}
		return nil
	}); err != nil {
		panic(err)
	}
}

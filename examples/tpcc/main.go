// Example tpcc: partition TPC-C with Schism, then run the live workload on
// a simulated shared-nothing cluster partitioned by the derived rules —
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
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
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

	// 2. Deploy: install the learned strategy into the router and spread
	// the warehouses across the cluster. (We use the range rules when the
	// validation phase picked them; TPC-C always ends up warehouse-
	// partitioned with the item table replicated.)
	strategy := res.Chosen
	if _, ok := strategy.(*partition.Range); !ok {
		fmt.Println("note: validation picked", res.ChosenName, "- deploying range rules anyway for the cluster demo")
		strategy = res.Range
	}
	c := cluster.New(cluster.Config{
		Nodes:        *k,
		ServiceTime:  10 * time.Microsecond,
		NetworkDelay: 100 * time.Microsecond,
	}, func(node int) *storage.Database {
		db := storage.NewDatabase()
		wLo := node**warehouses / *k + 1
		wHi := (node + 1) * *warehouses / *k
		workloads.TPCCPopulate(db, cfg, wLo, wHi, true)
		return db
	})
	defer c.Close()
	co := cluster.NewCoordinator(c, strategy)

	// 3. Drive the live five-transaction mix: closed-loop clients, each
	// drawing from its own deterministic stream. Every statement carries
	// the warehouse predicate the range rules route on.
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

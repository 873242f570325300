package experiments

import (
	"fmt"
	"io"
	"time"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/storage"
	"schism/internal/workloads"
)

// Fig1Row is one point of Figure 1: throughput (and latency) of the
// simplecount workload at a given server count, for single-partition and
// distributed transactions.
type Fig1Row struct {
	Servers        int
	SingleTPS      float64
	DistributedTPS float64
	SingleLatency  time.Duration
	DistLatency    time.Duration
}

// The §3 microbenchmark's fixed parameters.
const (
	fig1MaxServers  = 5    // paper: 5
	fig1RowsPerNode = 1000 // paper: 1k per client
	// fig1ServiceTime is the per-message CPU cost at a node and
	// fig1NetworkDelay the one-way latency.
	fig1ServiceTime  = 300 * time.Microsecond
	fig1NetworkDelay = 200 * time.Microsecond
	fig1Workers      = 1 // executor workers per node (CPU cores)
)

// Fig1 measures the price of distribution: the same 2-read transaction
// executed single-partition vs spread over two nodes with 2PC. The paper's
// result — distributed throughput ≈ half of single-partition, ≈ 2x latency
// — comes from the doubled per-transaction message count. Each point is a
// closed-loop driver.Run over SimplecountStream; latency is the mean
// commit latency, retries included.
func Fig1(s Scale) []Fig1Row {
	// Clients per server scale offered load with the cluster (the paper's
	// 150 clients over 5 servers = 30 per server); keeping per-node load
	// constant isolates the single-vs-distributed comparison. There are
	// enough closed-loop clients to saturate every server's CPU: the 2x
	// gap only appears once the cluster is CPU-bound, because a
	// distributed transaction costs twice the aggregate messages of a
	// local one.
	clientsPerServer := s.scaled(30, 20)
	duration := time.Duration(s.scaled(700, 150)) * time.Millisecond // per point
	var rows []Fig1Row
	for n := 1; n <= fig1MaxServers; n++ {
		sc := workloads.SimplecountConfig{Rows: fig1RowsPerNode * n, Partitions: n}
		run := func(distributed bool) *driver.Result {
			c := cluster.New(cluster.Config{
				Nodes:          n,
				WorkersPerNode: fig1Workers,
				ServiceTime:    fig1ServiceTime,
				NetworkDelay:   fig1NetworkDelay,
			}, func(node int) *storage.Database { return workloads.SimplecountDB(sc, node) })
			defer c.Close()
			co := cluster.NewCoordinator(c, workloads.SimplecountStrategy(sc))
			return driver.Run(co, driver.Config{
				Clients: clientsPerServer * n,
				Measure: duration,
				Seed:    42,
			}, workloads.SimplecountStream(sc, distributed))
		}
		single := run(false)
		row := Fig1Row{
			Servers:       n,
			SingleTPS:     single.Throughput(),
			SingleLatency: single.Latency.Mean(),
		}
		if n > 1 {
			dist := run(true)
			row.DistributedTPS = dist.Throughput()
			row.DistLatency = dist.Latency.Mean()
		}
		rows = append(rows, row)
	}
	return rows
}

// PrintFig1 renders Fig. 1 rows.
func PrintFig1(w io.Writer, rows []Fig1Row) {
	fmt.Fprintln(w, "Figure 1: throughput of single-partition vs distributed transactions")
	var out [][]string
	for _, r := range rows {
		dist, dlat := "-", "-"
		if r.DistributedTPS > 0 {
			dist = fmt.Sprintf("%.0f", r.DistributedTPS)
			dlat = r.DistLatency.Round(10 * time.Microsecond).String()
		}
		out = append(out, []string{
			fmt.Sprintf("%d", r.Servers),
			fmt.Sprintf("%.0f", r.SingleTPS),
			dist,
			r.SingleLatency.Round(10 * time.Microsecond).String(),
			dlat,
		})
	}
	table(w, []string{"servers", "single tps", "distributed tps", "single lat", "dist lat"}, out)
}

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

// Fig1Config parameterises the §3 microbenchmark.
type Fig1Config struct {
	MaxServers int // paper: 5
	// ClientsPerServer scales offered load with the cluster (the paper's
	// 150 clients over 5 servers = 30 per server); keeping per-node load
	// constant isolates the single-vs-distributed comparison.
	ClientsPerServer int
	RowsPerNode      int           // paper: 1k per client
	Duration         time.Duration // per measurement point
	ServiceTime      time.Duration // per-message CPU cost at a node
	NetworkDelay     time.Duration // one-way latency
	Workers          int           // executor workers per node (CPU cores)
}

func (c Fig1Config) withDefaults(s Scale) Fig1Config {
	if c.MaxServers <= 0 {
		c.MaxServers = 5
	}
	if c.ClientsPerServer <= 0 {
		// Enough closed-loop clients to saturate every server's CPU (the
		// paper uses 150 over 5 servers): the 2x gap only appears once the
		// cluster is CPU-bound, because a distributed transaction costs
		// twice the aggregate messages of a local one.
		c.ClientsPerServer = s.scaled(30, 20)
	}
	if c.RowsPerNode <= 0 {
		c.RowsPerNode = 1000
	}
	if c.Duration <= 0 {
		c.Duration = time.Duration(s.scaled(700, 150)) * time.Millisecond
	}
	if c.ServiceTime <= 0 {
		c.ServiceTime = 300 * time.Microsecond
	}
	if c.NetworkDelay <= 0 {
		c.NetworkDelay = 200 * time.Microsecond
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// Fig1 measures the price of distribution: the same 2-read transaction
// executed single-partition vs spread over two nodes with 2PC. The paper's
// result — distributed throughput ≈ half of single-partition, ≈ 2x latency
// — comes from the doubled per-transaction message count. Each point is a
// closed-loop driver.Run over SimplecountStream; latency is the mean
// commit latency, retries included.
func Fig1(cfg Fig1Config, s Scale) []Fig1Row {
	cfg = cfg.withDefaults(s)
	var rows []Fig1Row
	for n := 1; n <= cfg.MaxServers; n++ {
		sc := workloads.SimplecountConfig{Rows: cfg.RowsPerNode * n, Partitions: n}
		run := func(distributed bool) *driver.Result {
			c := cluster.New(cluster.Config{
				Nodes:          n,
				WorkersPerNode: cfg.Workers,
				ServiceTime:    cfg.ServiceTime,
				NetworkDelay:   cfg.NetworkDelay,
			}, func(node int) *storage.Database { return workloads.SimplecountDB(sc, node) })
			defer c.Close()
			co := cluster.NewCoordinator(c, workloads.SimplecountStrategy(sc))
			return driver.Run(co, driver.Config{
				Clients: cfg.ClientsPerServer * n,
				Measure: cfg.Duration,
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

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

// Fig6Row is one point of Figure 6: TPC-C throughput at a partition count
// under the two scaling configurations.
type Fig6Row struct {
	Partitions int
	// FixedTotalTPS: 16 warehouses spread over the cluster (scale-out of a
	// fixed database; contention grows as warehouses/machine shrinks).
	FixedTotalTPS float64
	// PerMachineTPS: 16 warehouses PER machine (scale-out by growing the
	// database with the hardware; near-linear in the paper).
	PerMachineTPS float64
	// failed counts the transactions of both series that failed
	// permanently; PrintFig6 shows it beside the throughputs.
	failed int64
}

// The end-to-end experiment's fixed parameters.
const (
	fig6WarehousesFixed = 16 // total warehouses in config 1 (paper: 16)
	fig6WarehousesPer   = 16 // warehouses per machine in config 2 (paper: 16)
	fig6ServiceTime     = 10 * time.Microsecond
	// fig6NetworkDelay makes statement round-trips dominate transaction
	// duration (as with the paper's real network); lock hold times, and
	// therefore the hot-row contention that limits the fixed-16-warehouse
	// series, scale with this delay.
	fig6NetworkDelay = 300 * time.Microsecond
)

// fig6Partitions are the cluster sizes measured (paper: 1, 2, 4, 8).
var fig6Partitions = []int{1, 2, 4, 8}

// Fig6 runs TPC-C end-to-end through the cluster with the Schism-derived
// warehouse partitioning (identical to the rules the pipeline learns; see
// TestTPCCExplanation). The fixed-16-warehouse series saturates on
// warehouse/district lock contention as warehouses-per-machine shrinks;
// the 16-per-machine series scales near-linearly (§6.3). Each point is a
// closed-loop driver.Run over TPCCNewOrderPaymentStream, whose
// statements carry the warehouse predicate TPCCManual routes on.
func Fig6(s Scale) ([]Fig6Row, error) {
	var rows []Fig6Row
	for _, k := range fig6Partitions {
		fixed, err := fig6Run(s, k, fig6WarehousesFixed)
		if err != nil {
			return nil, err
		}
		perMachine, err := fig6Run(s, k, fig6WarehousesPer*k)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{
			Partitions:    k,
			FixedTotalTPS: fixed.Throughput(),
			PerMachineTPS: perMachine.Throughput(),
			failed:        fixed.Failed + perMachine.Failed,
		})
	}
	return rows, nil
}

// fig6Run measures one cluster size and warehouse count.
func fig6Run(s Scale, k, warehouses int) (*driver.Result, error) {
	tcfg := workloads.TPCCConfig{
		Warehouses: warehouses,
		Customers:  s.scaled(60, 20),
		Items:      s.scaled(500, 100),
		// Small initial order backlog keeps population fast.
		InitialOrders: 5,
		Seed:          13,
	}
	// NewOrder+Payment mix: the throughput-dominant write transactions
	// whose warehouse/district row locks produce the paper's contention
	// bottleneck (§6.3 reports "nearly all transactions conflict" at 2
	// warehouses per machine). Client count saturates each configuration
	// without overloading it: beyond ~2 clients per warehouse the
	// closed-loop workload collapses into wait-die retry storms, which is
	// the same effect that keeps the paper from saturating single machines
	// at 2 warehouses each.
	clients := s.scaled(48, 16) * k
	if cap := 2 * warehouses; clients > cap {
		clients = cap
	}
	db := storage.NewDatabase()
	workloads.TPCCPopulate(db, tcfg)
	return deployAndRun(cluster.Config{
		Nodes: k,
		// A lock wait parks the worker serving it. With fewer workers than
		// clients, waiters on the hot district and warehouse rows can take
		// every worker of a node, so the holders' next statements queue
		// until LockTimeout frees them and the point stalls for seconds.
		// One worker per client rules that out; at this ServiceTime the
		// node's CPU is not what limits the run.
		WorkersPerNode: clients,
		ServiceTime:    fig6ServiceTime,
		NetworkDelay:   fig6NetworkDelay,
		LockTimeout:    5 * time.Second,
	}, db, workloads.TPCCManual(tcfg, k), driver.Config{
		Clients: clients,
		Measure: time.Duration(s.scaled(800, 200)) * time.Millisecond,
		Seed:    17,
	}, workloads.TPCCNewOrderPaymentStream(tcfg))
}

// PrintFig6 renders the Fig. 6 series with speedup factors.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6: TPC-C throughput scaling (txns/s)")
	var base1, base2 float64
	var out [][]string
	for i, r := range rows {
		if i == 0 {
			base1, base2 = r.FixedTotalTPS, r.PerMachineTPS
		}
		su1, su2 := "-", "-"
		if base1 > 0 {
			su1 = fmt.Sprintf("%.1fx", r.FixedTotalTPS/base1)
		}
		if base2 > 0 {
			su2 = fmt.Sprintf("%.1fx", r.PerMachineTPS/base2)
		}
		out = append(out, []string{
			fmt.Sprintf("%d", r.Partitions),
			fmt.Sprintf("%.0f", r.FixedTotalTPS),
			su1,
			fmt.Sprintf("%.0f", r.PerMachineTPS),
			su2,
			fmt.Sprintf("%d", r.failed),
		})
	}
	table(w, []string{"partitions", "16wh total tps", "speedup", "16wh/machine tps", "speedup", "failed"}, out)
}

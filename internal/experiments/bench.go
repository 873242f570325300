package experiments

import (
	"fmt"
	"io"
	"time"

	"schism/internal/cluster"
	"schism/internal/core"
	"schism/internal/driver"
	"schism/internal/obs"
	"schism/internal/partition"
	"schism/internal/workloads"
)

// The bench experiment is the repo's end-to-end restatement of the
// paper's headline claim (§3, Fig. 6/7): partitioning quality is not an
// abstract graph metric — fewer distributed transactions is more
// throughput and lower latency on a running cluster. It executes the
// SAME deterministic TPC-C client streams against the same data under
// four routing strategies:
//
//   - schism: the lookup-table strategy the full pipeline (graph →
//     min-cut → lookup tables) learns from a captured trace;
//   - hash: hash partitioning on each table's primary key (the paper's
//     baseline);
//   - range: the expert manual strategy [21] — warehouse ranges with the
//     item table replicated;
//   - replication: full replication (local reads, write-everywhere).
//
// Each statement carries both its surrogate-key predicate and its
// warehouse-attribute predicate, so every strategy routes it as
// precisely as that strategy can — the comparison isolates placement
// quality, not parser luck.

// The strategy comparison's fixed parameters.
const (
	// benchWarehouses is the TPC-C scale and benchPartitions the cluster
	// size k.
	benchWarehouses = 8
	benchPartitions = 4
	// benchClients is the number of concurrent driver clients: twice the
	// partitions, which stays within two per warehouse to avoid wait-die
	// retry storms, as in Fig. 6.
	benchClients = 2 * benchPartitions
	// benchServiceTime is the per-message CPU cost at a node. There is no
	// network delay: on the paper's LAN the commit-log force, not the
	// wire, dominates the cost of distribution, and sub-millisecond sleeps
	// overshoot badly enough under load to drown the strategy gap in
	// scheduler noise.
	benchServiceTime = 20 * time.Microsecond
	// benchWorkers is the per-node executor parallelism: queueing delay
	// inflates lock hold times, which couples into wait-die churn.
	benchWorkers = 16
	// benchLogForce is the synchronous log-flush latency at prepare and
	// commit. This is the deterministic price of 2PC the paper measures
	// (§3): a local transaction forces the log once, a distributed one
	// twice, sequentially, on the latency path.
	benchLogForce = 5 * time.Millisecond
	// benchLockTimeout bounds lock waits: long stalls feed the retry storm
	// instead of resolving it.
	benchLockTimeout = 300 * time.Millisecond
	// benchSeed drives trace generation, the pipeline, and the client
	// streams.
	benchSeed = 42
)

// BenchConfig selects what the strategy comparison runs; everything else
// is fixed (see the bench* constants).
type BenchConfig struct {
	// Strategies restricts the comparison (default all four:
	// schism, hash, range, replication).
	Strategies []string
	// Obs attaches an observability registry to each strategy's cluster;
	// the per-strategy metrics snapshot lands in BenchRow.Metrics and
	// PrintBench appends a metrics digest after the comparison table.
	// Default off, so the headline numbers measure the uninstrumented
	// fast path.
	Obs bool
}

// BenchRow is one strategy's measured line.
type BenchRow struct {
	Strategy  string
	Committed int64
	Failed    int64
	TPS       float64
	P50, P95  time.Duration
	P99, P999 time.Duration
	// DistFrac is the fraction of committed transactions spanning >1
	// node; DistStmtFrac the same per statement.
	DistFrac     float64
	DistStmtFrac float64
	AbortRate    float64
	Imbalance    float64
	// RoutingBytes is the routing-metadata footprint (lookup tables
	// only; predicate and hash strategies are O(rules)).
	RoutingBytes int64
	// Metrics is the cluster's observability snapshot (nil unless
	// BenchConfig.Obs).
	Metrics *obs.Snapshot
}

// BenchResult is the full comparison for one workload.
type BenchResult struct {
	Workload string
	K        int
	Clients  int
	Rows     []BenchRow
}

// Row returns the named strategy's row (nil if absent).
func (r *BenchResult) Row(strategy string) *BenchRow {
	for i := range r.Rows {
		if r.Rows[i].Strategy == strategy {
			return &r.Rows[i]
		}
	}
	return nil
}

// benchTPCCConfig fixes every TPC-C parameter at the experiment scale.
func benchTPCCConfig(s Scale) workloads.TPCCConfig {
	return workloads.TPCCConfig{
		Warehouses:    benchWarehouses,
		Districts:     10,
		Customers:     s.scaled(30, 10),
		Items:         s.scaled(300, 100),
		InitialOrders: 5,
		// The trace must cover the key space densely enough that the
		// lookup tables place (rather than hash-scatter) the tuples the
		// runtime streams touch; untraced tuples are the main source of
		// avoidable distributed transactions at small scale.
		Txns: s.scaled(30000, 12000),
		Seed: benchSeed,
	}
}

// Bench runs the TPC-C strategy comparison: capture a trace, learn the
// Schism lookup strategy from it, then drive identical client streams
// through each strategy's cluster and measure.
func Bench(cfg BenchConfig, s Scale) (*BenchResult, error) {
	strategyNames := cfg.Strategies
	if len(strategyNames) == 0 {
		strategyNames = []string{"schism", "hash", "range", "replication"}
	}
	k := benchPartitions
	tcfg := benchTPCCConfig(s)
	w := workloads.TPCC(tcfg)

	// Learn the Schism strategy from the captured trace (the full
	// pipeline: graph construction, min-cut partitioning, lookup tables
	// with replication of read-mostly tuples).
	res, err := core.Run(core.Input{
		Trace:      w.Trace,
		Resolver:   w.Resolver(),
		KeyColumns: w.KeyColumns,
		DB:         w.DB,
	}, core.Options{Partitions: k, Seed: benchSeed})
	if err != nil {
		return nil, fmt.Errorf("bench: pipeline: %w", err)
	}

	strategies := map[string]partition.Strategy{
		"schism":      res.Lookup,
		"hash":        &partition.Hash{K: k, KeyColumn: workloads.TPCCKeyColumns()},
		"range":       workloads.TPCCManual(tcfg, k),
		"replication": &partition.FullReplication{K: k},
	}

	out := &BenchResult{Workload: w.Name, K: k, Clients: benchClients}
	for _, name := range strategyNames {
		strat, ok := strategies[name]
		if !ok {
			return nil, fmt.Errorf("bench: unknown strategy %q", name)
		}
		row, err := benchOne(cfg.Obs, s, tcfg, w, name, strat)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// benchOne builds a cluster populated per the strategy's placement and
// drives it with the shared client streams.
func benchOne(withObs bool, s Scale, tcfg workloads.TPCCConfig, w *workloads.Workload, name string, strat partition.Strategy) (BenchRow, error) {
	k := strat.NumPartitions()
	var reg *obs.Registry
	if withObs {
		reg = obs.NewRegistry()
	}
	// The measurement window must be long relative to the wait-die
	// retry/backoff dynamics or run-to-run variance swamps the strategy
	// gap; warmup lets the initial lock-conflict churn settle.
	r, err := deployAndRun(cluster.Config{
		Nodes:          k,
		WorkersPerNode: benchWorkers,
		ServiceTime:    benchServiceTime,
		LockTimeout:    benchLockTimeout,
		LogForce:       benchLogForce,
		Obs:            reg,
	}, w.DB, strat, driver.Config{
		Clients: benchClients,
		Warmup:  time.Duration(s.scaled(500, 300)) * time.Millisecond,
		Measure: time.Duration(s.scaled(2000, 1000)) * time.Millisecond,
		Seed:    benchSeed,
	}, workloads.TPCCNewOrderPaymentStream(tcfg))
	if err != nil {
		return BenchRow{}, err
	}
	if r.Committed == 0 {
		return BenchRow{}, fmt.Errorf("bench: strategy %q committed no transactions", name)
	}

	row := BenchRow{
		Strategy:     name,
		Committed:    r.Committed,
		Failed:       r.Failed,
		TPS:          r.Throughput(),
		P50:          r.Latency.Quantile(0.50),
		P95:          r.Latency.Quantile(0.95),
		P99:          r.Latency.Quantile(0.99),
		P999:         r.Latency.Quantile(0.999),
		DistFrac:     r.DistributedFrac(),
		DistStmtFrac: r.DistStmtFrac(),
		AbortRate:    r.AbortRate(),
		Imbalance:    r.Imbalance(),
	}
	if l, ok := strat.(*partition.Lookup); ok {
		row.RoutingBytes = l.MemoryBytes()
	}
	if reg != nil {
		row.Metrics = reg.Snapshot()
	}
	return row, nil
}

// PrintBench renders the Fig. 6/7-style comparison table.
func PrintBench(wr io.Writer, r *BenchResult) {
	fmt.Fprintf(wr, "Benchmark: %s end-to-end, %d partitions, %d closed-loop clients\n", r.Workload, r.K, r.Clients)
	var rows [][]string
	var base float64
	for i, row := range r.Rows {
		if i == 0 {
			base = row.TPS
		}
		speedup := "-"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", row.TPS/base)
		}
		rows = append(rows, []string{
			row.Strategy,
			fmt.Sprintf("%.0f", row.TPS),
			speedup,
			row.P50.Round(10 * time.Microsecond).String(),
			row.P95.Round(10 * time.Microsecond).String(),
			row.P99.Round(10 * time.Microsecond).String(),
			pct(row.DistFrac),
			pct(row.DistStmtFrac),
			pct(row.AbortRate),
			fmt.Sprintf("%.2f", row.Imbalance),
			routingBytes(row.RoutingBytes),
		})
	}
	table(wr, []string{"strategy", "tps", "rel", "p50", "p95", "p99", "%dist-txn", "%dist-stmt", "abort", "imbalance", "routing"}, rows)
	for _, row := range r.Rows {
		printMetrics(wr, row.Strategy, row.Metrics)
	}
}

func routingBytes(b int64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%dB", b)
}

package main

import (
	"fmt"
	"math"
	"time"

	"schism/internal/cluster"
	"schism/internal/core"
	"schism/internal/datum"
	"schism/internal/driver"
	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/obs"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workloads"
)

// txnState is a txn-* workload's set-up: a populated cluster nobody has
// run against yet, and what it was built from.
type txnState struct {
	w     *workloads.Workload
	strat partition.Strategy
	c     *cluster.Cluster
	co    *cluster.Coordinator
	reg   *obs.Registry // nil when untraced
	learn *core.Result  // the pipeline run that learned strat; nil for hash
}

func (s txnState) close() {
	if s.c != nil {
		s.c.Close()
	}
}

// newRegistry returns the cluster's own counters for a traced run, nil
// (instrumentation off) otherwise.
func newRegistry(e *env) *obs.Registry {
	if e.tr == nil {
		return nil
	}
	return obs.NewRegistry()
}

// clusterConfig is the cluster every txn workload runs on: every
// modelled delay (NetworkDelay, ServiceTime, LogForce) is zero, so
// latency is processor time only.
func clusterConfig(nodes, r int, reg *obs.Registry) cluster.Config {
	return cluster.Config{
		Nodes: nodes, ReplicationFactor: r,
		WorkersPerNode: 16, LockTimeout: 300 * time.Millisecond,
		Obs: reg,
	}
}

// runTxnTPCC measures the transaction path on multi-statement
// transactions: TPC-C NewOrder and Payment on 4 nodes, routed by the
// lookup strategy the pipeline learns in set-up.
func runTxnTPCC(e *env) error {
	const k = 4
	tcfg := workloads.TPCCConfig{
		Warehouses: 8, Districts: 10, Customers: 15, Items: 150, InitialOrders: 5,
		Txns: e.scaled(6000, 600), Seed: e.cfg.seed,
	}
	e.sizes["tpcc"] = tpccSizes(tcfg)
	e.sizes["nodes"] = k
	e.sizes["replication_factor"] = 1
	st, err := setups(e, func() (txnState, error) {
		w := workloads.TPCC(tcfg)
		res, err := core.Run(core.Input{Trace: w.Trace, Resolver: w.Resolver(), KeyColumns: w.KeyColumns, DB: w.DB},
			core.Options{Partitions: k, Seed: e.cfg.seed})
		if err != nil {
			return txnState{}, fmt.Errorf("learn strategy: %w", err)
		}
		s := txnState{w: w, strat: res.Lookup, learn: res, reg: newRegistry(e)}
		s.c = cluster.New(clusterConfig(k, 1, s.reg), func(node int) *storage.Database {
			return cluster.SplitDatabase(w.DB, s.strat, node)
		})
		s.co = cluster.NewCoordinator(s.c, s.strat)
		return s, nil
	}, txnState.close)
	if err != nil {
		return err
	}
	defer st.close()

	before, err := snapshotTPCC(st.c)
	if err != nil {
		return err
	}
	if err := runLoad(e, st, workloads.TPCCNewOrderPaymentStream(tcfg), map[string]float64{"no": 0.51, "pay": 0.49}); err != nil {
		return err
	}
	after, err := snapshotTPCC(st.c)
	if err != nil {
		return err
	}
	checkTPCC(e, before, after)

	if e.tr == nil {
		return nil
	}
	t := st.learn.Timings
	e.set("core.graph_ms", ms(t.Graph))
	e.set("core.partition_ms", ms(t.Partition))
	e.set("core.explain_ms", ms(t.Explain))
	e.set("core.validate_ms", ms(t.Validate))
	train, test := st.w.Trace.Split(0.5)
	d := e.buf.timed(probeID, "partition.Evaluate", -1, func() { partition.Evaluate(test, st.strat, st.w.Resolver()) })
	e.set("partition.evaluate_ms", ms(d))
	return probeGraph(e, train, k, graph.Options{Replication: true, Seed: e.cfg.seed}, metis.Options{Seed: e.cfg.seed})
}

// runTxnYCSB measures the same cluster code on one-statement
// transactions with replication: YCSB-A on 4 groups of 3 replicas under
// hash partitioning.
func runTxnYCSB(e *env) error {
	const groups, r = 4, 3
	ycfg := workloads.YCSBConfig{Rows: e.scaled(100000, 2000), Txns: replayTxns, Seed: e.cfg.seed}
	e.sizes["ycsb"] = ycfg
	e.sizes["nodes"] = groups * r
	e.sizes["replication_factor"] = r
	build := func(replicas int, reg *obs.Registry) (txnState, error) {
		w := workloads.YCSBA(ycfg)
		s := txnState{w: w, strat: &partition.Hash{K: groups, KeyColumn: w.KeyColumns}, reg: reg}
		s.c = cluster.New(clusterConfig(groups*replicas, replicas, reg), func(node int) *storage.Database {
			return cluster.SplitDatabase(w.DB, s.strat, node/replicas)
		})
		if !s.c.WaitForLeaders(10 * time.Second) {
			s.c.Close()
			return txnState{}, fmt.Errorf("no leaders elected at R=%d", replicas)
		}
		s.co = cluster.NewCoordinator(s.c, s.strat)
		return s, nil
	}
	st, err := setups(e, func() (txnState, error) { return build(r, newRegistry(e)) }, txnState.close)
	if err != nil {
		return err
	}
	defer st.close()

	mk := workloads.YCSBAStream(ycfg)
	if err := runLoad(e, st, mk, map[string]float64{"u": 0.5, "r": 0.5}); err != nil {
		return err
	}
	checkReplicas(e, st.c)

	if e.tr == nil {
		return nil
	}
	// One-statement transactions commit in one round, so the cluster's
	// propose -> quorum -> applied wait is its repl.commit.apply histogram;
	// repl.append.quorum (2PC prepares) stays empty here.
	e.set("repl.commit_apply_p50_us", float64(st.reg.Snapshot().Hists["repl.commit.apply"].P50)/1e3)

	// The single-node baseline: the same stream on the same groups with
	// one replica each, traced and instrumented as the measured section
	// was, so that what R=3 costs above it is replication alone.
	base, err := build(1, newRegistry(e))
	if err != nil {
		return err
	}
	defer base.close()
	blg := newLoadgen(base.co, mk, e.cfg.seed, e.tr)
	blg.spanTag, blg.spanBase = "r1.", baselineID
	warm, warmOps, measure, ops := e.phases()
	blg.phase(warm, warmOps, false)
	r1 := medianCosts(blg.phase(measure/4, ops, true))
	e.set("repl.r1_cpu_us_per_txn", r1.cpuUSPerTxn)
	e.set("repl.overhead_us_per_txn", e.metrics["driver.cpu_us_per_txn"]-r1.cpuUSPerTxn)
	return nil
}

// phases returns the warm-up and measured lengths of a load run, and the
// per-client op counts that replace them when config.ops is set.
func (e *env) phases() (warm time.Duration, warmOps int, measure time.Duration, ops int) {
	measure = time.Duration(e.cfg.seconds * float64(time.Second))
	if ops = e.cfg.ops; ops > 0 {
		warmOps = max(ops/10, 1)
	}
	return min(measure/5, time.Second), warmOps, measure, ops
}

// runLoad warms the cluster up, measures one closed-loop section on it,
// and reports the transaction-path metrics. weights are the op classes'
// nominal shares of the stream: driver.op_p50_ms is the class medians weighted
// by them, because the median of a two-humped mix sits between the humps
// and jumps with the realised mix.
func runLoad(e *env, st txnState, mk driver.StreamMaker, weights map[string]float64) error {
	lg := newLoadgen(st.co, mk, e.cfg.seed, e.tr)
	warm, warmOps, measure, ops := e.phases()
	lg.phase(warm, warmOps, false)
	var snap0 *obs.Snapshot
	if st.reg != nil {
		snap0 = st.reg.Snapshot()
	}
	slices := lg.phase(measure, ops, true)
	if err := st.co.Drain(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}

	committed := float64(lg.committed.Load())
	e.attempted += lg.committed.Load() + lg.failed.Load()
	e.failed += lg.failed.Load()
	e.check("no-failed-transactions", lg.failed.Load() == 0, "%d of %d transactions failed", lg.failed.Load(), e.attempted)
	if committed == 0 {
		return fmt.Errorf("no transaction committed")
	}
	all, byClass := lg.latencies()
	var p50 float64
	for class, w := range weights {
		p50 += w * median(byClass[class])
	}
	e.check("op-classes", len(byClass) == len(weights) && p50 > 0, "stream yielded classes %v, want %v", obs.Names(byClass), obs.Names(weights))
	c := e.setCosts(slices, p50)
	e.set("min_sites_per_txn", 1+float64(lg.distributed.Load())/committed)
	e.sizes["measured_txns"] = lg.committed.Load()
	if ops > 0 {
		e.counts["client_sigs"] = lg.sigs()
	}
	if e.tr == nil {
		return nil
	}

	for class, name := range classMetric {
		e.set(name, 1e3*median(byClass[class]))
	}
	stmts := float64(lg.stmtLocal.Load() + lg.stmtDist.Load())
	e.set("driver.txn_p99_us", 1e3*quantile(all, 0.99))
	e.set("driver.txn_p999_us", 1e3*quantile(all, 0.999))
	e.set("cluster.aborts_per_txn", float64(lg.aborts.Load())/committed)
	e.set("cluster.stmts_per_txn", stmts/committed)
	e.set("cluster.stmt_p50_us", float64(lg.stmtLat.Merged().Quantile(0.5))/1e3)
	e.set("cluster.commit_p50_us", 1e3*median(lg.commitLatencies()))
	e.set("cluster.dist_stmt_frac", ratio(float64(lg.stmtDist.Load()), stmts))
	snap1 := st.reg.Snapshot()
	delta := func(m0, m1 map[string]int64, name string) float64 { return float64(m1[name] - m0[name]) }
	e.set("cluster.two_phase_frac", delta(snap0.Counters, snap1.Counters, "txn.commit.two_phase")/committed)
	e.set("txn.lock_waits_per_ktxn", 1e3*delta(snap0.Gauges, snap1.Gauges, "lock.waits")/committed)
	e.set("txn.lock_dies_per_ktxn", 1e3*delta(snap0.Gauges, snap1.Gauges, "lock.dies")/committed)
	e.set("wal.bytes_per_txn", delta(snap0.Gauges, snap1.Gauges, "wal.bytes")/committed)

	layers, err := probeStmtPath(e, st.w.Trace, st.strat, st.w.DB)
	if err != nil {
		return err
	}
	e.set("cluster.unattributed_us_per_txn", c.cpuUSPerTxn-layers.perTxnUS(stmts/committed))
	return nil
}

// classMetric names the layer metric holding each op class's median
// latency; a class a stream does not draw reads 0.
var classMetric = map[string]string{
	"no": "driver.neworder_p50_us", "pay": "driver.payment_p50_us",
	"r": "driver.read_p50_us", "u": "driver.write_p50_us",
}

// tpccTotals are the quantities TPC-C's consistency conditions relate,
// each tuple counted once however many replicas hold it.
type tpccTotals struct {
	wYtd, dYtd, cBal    float64
	sYtd                int64
	history, orderLines int64
}

// snapshotTPCC scans every node's database. A tuple the lookup strategy
// replicated appears on several nodes; its copies must agree, and it
// counts once.
func snapshotTPCC(c *cluster.Cluster) (tpccTotals, error) {
	var t tpccTotals
	var err error
	scan := func(table, col string, fn func(datum.D)) {
		seen := map[int64]storage.Row{}
		for n := 0; n < c.NumNodes() && err == nil; n++ {
			tbl := c.Node(n).DB().Table(table)
			if tbl == nil {
				err = fmt.Errorf("node %d has no table %s", n, table)
				return
			}
			ci := -1
			if col != "" {
				if ci = tbl.Schema.ColIndex(col); ci < 0 {
					err = fmt.Errorf("table %s has no column %s", table, col)
					return
				}
			}
			tbl.ScanAll(func(key int64, row storage.Row) bool {
				if first, dup := seen[key]; dup {
					if !rowsEqual(first, row) {
						err = fmt.Errorf("replicas of %s %d disagree: %v vs %v", table, key, first, row)
					}
					return err == nil
				}
				seen[key] = row
				if ci >= 0 {
					fn(row[ci])
				} else {
					fn(datum.D{})
				}
				return true
			})
		}
	}
	scan("warehouse", "w_ytd", func(d datum.D) { t.wYtd += d.F })
	scan("district", "d_ytd", func(d datum.D) { t.dYtd += d.F })
	scan("customer", "c_balance", func(d datum.D) { t.cBal += d.F })
	scan("stock", "s_ytd", func(d datum.D) { t.sYtd += d.I })
	scan("history", "", func(datum.D) { t.history++ })
	scan("order_line", "", func(datum.D) { t.orderLines++ })
	return t, err
}

func rowsEqual(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !datum.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkTPCC asserts the conservation conditions a half-applied
// transaction would break (the ones internal/driver/chaos_test.go uses):
// a payment moves 100.00 from a customer's balance onto its warehouse and
// district and inserts one history row; a new-order bumps s_ytd once per
// order line it inserts.
func checkTPCC(e *env, before, after tpccTotals) {
	const eps = 1e-6
	payments := 100 * float64(after.history-before.history)
	e.check("tpcc-w_ytd-matches-history", math.Abs(after.wYtd-before.wYtd-payments) < eps,
		"sum(w_ytd) rose by %.2f, new history rows account for %.2f", after.wYtd-before.wYtd, payments)
	e.check("tpcc-d_ytd-matches-history", math.Abs(after.dYtd-before.dYtd-payments) < eps,
		"sum(d_ytd) rose by %.2f, new history rows account for %.2f", after.dYtd-before.dYtd, payments)
	e.check("tpcc-money-conserved", math.Abs(after.wYtd+after.cBal-before.wYtd-before.cBal) < eps,
		"sum(w_ytd)+sum(c_balance) went from %.2f to %.2f", before.wYtd+before.cBal, after.wYtd+after.cBal)
	e.check("tpcc-s_ytd-matches-order_line", after.sYtd-before.sYtd == after.orderLines-before.orderLines,
		"sum(s_ytd) rose by %d, %d order_line rows inserted", after.sYtd-before.sYtd, after.orderLines-before.orderLines)
	e.check("tpcc-rows-inserted", after.history > before.history && after.orderLines > before.orderLines,
		"history %d -> %d, order_line %d -> %d", before.history, after.history, before.orderLines, after.orderLines)
}

// checkReplicas asserts that, once replication has caught up, every
// follower's tables equal its group leader's.
func checkReplicas(e *env, c *cluster.Cluster) {
	if !c.WaitReplicated(10 * time.Second) {
		e.check("replicas-caught-up", false, "followers still behind after 10s")
		return
	}
	e.check("replicas-caught-up", true, "")
	diffs := 0
	for g := 0; g < c.NumGroups(); g++ {
		li := c.GroupLeader(g)
		if li < 0 {
			diffs++
			continue
		}
		leader := c.Node(li).DB()
		for _, m := range c.GroupMembers(g) {
			db := c.Node(m).DB()
			for _, tn := range leader.TableNames() {
				lt, ft := leader.Table(tn), db.Table(tn)
				if ft == nil || ft.Len() != lt.Len() {
					diffs++
					continue
				}
				lt.ScanAll(func(key int64, row storage.Row) bool {
					if other, ok := ft.Get(key); !ok || !rowsEqual(row, other) {
						diffs++
					}
					return true
				})
			}
		}
	}
	e.check("followers-equal-leaders", diffs == 0, "%d rows or tables differ between a follower and its leader", diffs)
}

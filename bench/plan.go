package main

import (
	"fmt"
	"time"

	"schism/internal/core"
	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// probeID marks spans of the layer probes a traced run makes after its
// measured section; measured work uses ids counting from 0.
const probeID = 1 << 50

// baselineID marks transaction spans of txn-ycsb-r3's R = 1 baseline pass.
const baselineID = 1 << 51

// planState is plan-tpcc's set-up: the generated database and trace.
type planState struct {
	w        *workloads.Workload
	resolver partition.Resolver
}

// runPlanTPCC measures the offline pipeline: core.Run with the library's
// default Input and Options on a TPC-C trace, repeated until the measured
// section is over. One transaction here is one trace transaction planned.
func runPlanTPCC(e *env) error {
	const k = 8
	tcfg := workloads.TPCCConfig{
		Warehouses: 8, Districts: 10, Customers: 10, Items: 250, InitialOrders: 5,
		Txns: e.scaled(8000, 400), Seed: e.cfg.seed,
	}
	e.sizes["tpcc"] = tpccSizes(tcfg)
	e.sizes["partitions"] = k
	st, err := setups(e, func() (planState, error) {
		w := workloads.TPCC(tcfg)
		return planState{w, w.Resolver()}, nil
	}, func(planState) {})
	if err != nil {
		return err
	}
	in := core.Input{Trace: st.w.Trace, Resolver: st.resolver, KeyColumns: st.w.KeyColumns, DB: st.w.DB}
	opts := core.Options{Partitions: k, Seed: e.cfg.seed}

	const minRuns = 3
	var slices []slice
	var wallMS, graphMS, partMS, explainMS, validateMS, darkMS []float64
	var res *core.Result
	begin := time.Now()
	for run := 0; run < minRuns || time.Since(begin).Seconds() < e.cfg.seconds; run++ {
		before := readUsage()
		res, err = core.Run(in, opts)
		after := readUsage()
		if err != nil {
			return fmt.Errorf("core.Run: %w", err)
		}
		e.attempted++
		slices = append(slices, after.since(before, float64(in.Trace.Len())))
		t := res.Timings
		wall := after.at.Sub(before.at)
		wallMS = append(wallMS, ms(wall))
		graphMS = append(graphMS, ms(t.Graph))
		partMS = append(partMS, ms(t.Partition))
		explainMS = append(explainMS, ms(t.Explain))
		validateMS = append(validateMS, ms(t.Validate))
		darkMS = append(darkMS, ms(wall-t.Total()))
		if e.tr != nil {
			root := e.buf.add(int64(run), "core.Run", -1, before.at, after.at)
			e.buf.sequence(root,
				[]string{"core.graph", "core.partition", "core.explain", "core.validate"},
				[]time.Duration{t.Graph, t.Partition, t.Explain, t.Validate})
		}
	}
	e.series["run_ms"] = wallMS

	chosen := res.Costs[res.ChosenName]
	e.setCosts(slices, median(wallMS))
	e.set("min_sites_per_txn", 1+chosen.DistributedFrac())
	e.counts["chosen"] = res.ChosenName
	e.counts["distributed_test_txns"] = chosen.Distributed
	e.counts["routing_bytes"] = res.Lookup.MemoryBytes()
	e.counts["edge_cut"] = res.EdgeCut

	train, test := in.Trace.Split(0.5) // core.Run's default split
	checkPlan(e, res, train, k)

	if e.tr == nil {
		return nil
	}
	e.set("core.graph_ms", median(graphMS))
	e.set("core.partition_ms", median(partMS))
	e.set("core.explain_ms", median(explainMS))
	e.set("core.validate_ms", median(validateMS))
	e.set("core.unattributed_ms", median(darkMS))
	e.set("lookup.routing_bytes", float64(res.Lookup.MemoryBytes()))
	d := e.buf.timed(probeID, "partition.Evaluate", -1, func() { partition.Evaluate(test, res.Lookup, st.resolver) })
	e.set("partition.evaluate_ms", ms(d))
	return probeGraph(e, train, k, graph.Options{Replication: true, Seed: e.cfg.seed}, metis.Options{Seed: e.cfg.seed})
}

// checkPlan checks the pipeline's output: the strategy it chose beats
// hashing on the held-out half, every tuple it was trained on has a home,
// and the min-cut respected the partitioner's balance bound.
func checkPlan(e *env, res *core.Result, train *workload.Trace, k int) {
	chosen, hash := res.Costs[res.ChosenName], res.Costs["hashing"]
	e.check("chosen-beats-hash", chosen.Distributed < hash.Distributed,
		"%s distributes %d of %d held-out transactions, hashing %d", res.ChosenName, chosen.Distributed, chosen.Total, hash.Distributed)

	unplaced := 0
	for _, tx := range train.Txns {
		for _, a := range tx.Accesses {
			parts := res.Lookup.Locate(a.Tuple, nil)
			if len(parts) == 0 || parts[0] < 0 || parts[len(parts)-1] >= k {
				unplaced++
			}
		}
	}
	e.check("trained-tuples-locate", unplaced == 0, "%d accesses of the training trace have no valid replica set", unplaced)

	// metis guarantees total/k x Imbalance (1.05 by default) plus one
	// stranded node; 1.10 leaves that node room without hiding a broken
	// rebalance.
	var total, heaviest int64
	for _, w := range res.PartWeight {
		total += w
		heaviest = max(heaviest, w)
	}
	limit := int64(float64(total) / float64(k) * 1.10)
	e.check("parts-balanced", len(res.PartWeight) == k && heaviest <= limit,
		"heaviest of %d parts weighs %d, limit %d", len(res.PartWeight), heaviest, limit)
}

// probeGraph times the graph and partitioner layers from outside on one
// trace: the clique graph core.Run builds by default and the hypergraph
// beside it, each built once and cut once.
func probeGraph(e *env, tr *workload.Trace, k int, gopts graph.Options, mopts metis.Options) error {
	var g, hg *graph.Graph
	var cut int64
	var err error

	root := e.buf.begin(probeID+1, "probe.clique", -1)
	before := readUsage()
	d := e.buf.timed(probeID+1, "graph.Build", root, func() { g, err = graph.Build(tr, gopts) })
	if err != nil {
		return fmt.Errorf("graph.Build: %w", err)
	}
	e.set("graph.build_ms", ms(d))
	e.set("graph.build_alloc_mb", readUsage().since(before, 0).bytes/(1<<20))
	e.set("graph.nodes", float64(g.NumNodes()))
	e.set("graph.edges", float64(g.NumEdges()))
	d = e.buf.timed(probeID+1, "Graph.Partition", root, func() { _, cut, err = g.Partition(k, mopts) })
	if err != nil {
		return fmt.Errorf("Graph.Partition: %w", err)
	}
	e.buf.end(root)
	e.set("metis.part_ms", ms(d))
	e.set("metis.cut", float64(cut))

	root = e.buf.begin(probeID+2, "probe.hyper", -1)
	d = e.buf.timed(probeID+2, "graph.BuildHyper", root, func() { hg, err = graph.BuildHyper(tr, gopts) })
	if err != nil {
		return fmt.Errorf("graph.BuildHyper: %w", err)
	}
	e.set("graph.build_hyper_ms", ms(d))
	e.set("graph.hyper_nets", float64(hg.HG.NumNets()))
	d = e.buf.timed(probeID+2, "Graph.Partition", root, func() { _, cut, err = hg.Partition(k, mopts) })
	if err != nil {
		return fmt.Errorf("hypergraph Partition: %w", err)
	}
	e.buf.end(root)
	e.set("metis.part_hyper_ms", ms(d))
	e.set("metis.conn_cost", float64(cut))
	return nil
}

// tpccSizes is the part of a TPC-C configuration a result file records.
func tpccSizes(c workloads.TPCCConfig) map[string]int {
	return map[string]int{
		"warehouses": c.Warehouses, "districts": c.Districts, "customers": c.Customers,
		"items": c.Items, "initial_orders": c.InitialOrders, "trace_txns": c.Txns,
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Benchmarks of the partitioner and the live repartitioning cycle at
// TPCC-50W trace scale, plus ablations of the design choices called out
// in DESIGN.md. cmd/experiments regenerates the paper's tables and
// figures; the tests in internal/experiments check them.
//
//	go test -run '^$' -bench=. -benchmem
package schism_test

import (
	"fmt"
	"sync"
	"testing"

	"schism/internal/graph"
	"schism/internal/live"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// mustBuild unwraps graph.Build/BuildHyper for known-valid options.
func mustBuild(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// tpcc50Graph builds the TPCC-50W-scale workload graph once (clique
// edges + replication + coalescing, the configuration the paper uses for
// its largest runs; same trace shape as internal/graph's benchmarks).
var tpcc50Graph = sync.OnceValue(func() *graph.Graph {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 50, Customers: 20, Items: 500,
		InitialOrders: 5, Txns: 25000, Seed: 5,
	})
	return mustBuild(graph.Build(w.Trace, graph.Options{Replication: true, Coalesce: true, Seed: 3}))
})

// BenchmarkPartKway measures the multilevel partitioner alone (no graph
// construction) on the TPCC-50W-scale graph at the paper's small and
// large partition counts. The Solver is reused across iterations, so
// steady-state allocations are essentially the returned label slice.
func BenchmarkPartKway(b *testing.B) {
	g := tpcc50Graph()
	s := metis.NewSolver()
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			// One untimed call sizes the solver's scratch for this k, so
			// every repetition counts the steady state.
			if _, _, err := s.PartKway(g.CSR, k, metis.Options{Seed: 7}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var cut int64
			var parts []int32
			for i := 0; i < b.N; i++ {
				p, c, err := s.PartKway(g.CSR, k, metis.Options{Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				parts, cut = p, c
			}
			b.StopTimer()
			cost := partition.EvaluateAssignmentsCompact(g.Compact, g.DenseAssignments(parts))
			b.ReportMetric(float64(cut), "edgecut")
			b.ReportMetric(100*cost.DistributedFrac(), "%distributed")
			b.ReportMetric(float64(g.CSR.NumNodes()), "nodes")
		})
	}
}

// tpcc50Hyper builds the hypergraph-native representation of the same
// TPCC-50W trace as tpcc50Graph (one net per transaction plus the
// replication nets of §4.1, partitioned on the connectivity metric).
var tpcc50Hyper = sync.OnceValue(func() *graph.Graph {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 50, Customers: 20, Items: 500,
		InitialOrders: 5, Txns: 25000, Seed: 5,
	})
	return mustBuild(graph.BuildHyper(w.Trace, graph.Options{Replication: true, Coalesce: true, Seed: 3}))
})

// BenchmarkPartHKway measures the multilevel hypergraph partitioner on
// the TPCC-50W-scale hypergraph at the same partition counts as
// BenchmarkPartKway — the acceptance comparison for the connectivity-
// metric pipeline. Besides the raw connectivity cost it reports the
// honest quality metric shared with the clique path: the fraction of
// trace transactions left distributed under the resulting placement.
func BenchmarkPartHKway(b *testing.B) {
	g := tpcc50Hyper()
	s := metis.NewSolver()
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			// Untimed warm-up, as in BenchmarkPartKway.
			if _, _, err := s.PartHKway(g.HG, k, metis.Options{Seed: 7}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var conn int64
			var parts []int32
			for i := 0; i < b.N; i++ {
				p, c, err := s.PartHKway(g.HG, k, metis.Options{Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				parts, conn = p, c
			}
			b.StopTimer()
			cost := partition.EvaluateAssignmentsCompact(g.Compact, g.DenseAssignments(parts))
			b.ReportMetric(float64(conn), "conncost")
			b.ReportMetric(100*cost.DistributedFrac(), "%distributed")
			b.ReportMetric(float64(g.HG.NumNodes()), "nodes")
		})
	}
}

// BenchmarkLiveRepartition measures one incremental-repartitioning cycle
// of the live control loop at TPCC-50W trace scale (internal/live's
// TestWarmCycleCheaperThanFull asserts, on a smaller window, that a warm
// cycle allocates a fraction of a full one).
//
// Both arms build the window's hypergraph; they differ in the cut.
//
// cold: the from-scratch cycle — full multilevel connectivity cut with
// the held solver, relabel against the deployed assignment, and plan the
// migration.
//
// warm: the steady-state cycle — deployed placement projected onto the
// new hypergraph, boundary-restricted refinement in place of coarsen →
// bisect → uncoarsen, same relabel + plan tail. FullCutEveryN /
// DriftCutThreshold are disabled so every measured iteration is a
// genuine warm cycle. One warm cycle runs
// untimed first: the first refinement after a deploy walks the whole
// boundary down to a local optimum (the adapt experiment measures that
// transient), while steady state re-refines an already-converged
// placement — which is what repeats every window and what this arm
// times.
func BenchmarkLiveRepartition(b *testing.B) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 50, Customers: 20, Items: 500,
		InitialOrders: 5, Txns: 25000, Seed: 5,
	})
	win := live.NewWindow(live.WindowConfig{Capacity: len(w.Trace.Txns)})
	for _, t := range w.Trace.Txns {
		win.Record(t.Accesses)
	}
	// The initial deployment uses one partitioner seed and the measured
	// repartitioner another, so its labels come out shuffled relative to
	// the deployed assignment and the relabel + plan stages do real work
	// (same-seed reruns are identical by determinism and would plan zero
	// moves).
	deploy := func(b *testing.B, cfg live.RepartitionConfig) live.LocateFunc {
		b.Helper()
		rep, err := live.NewRepartitioner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		initial, err := rep.Repartition(win.Snapshot(), nil)
		if err != nil {
			b.Fatal(err)
		}
		return initial.LocateFunc()
	}
	measure := func(b *testing.B, rep *live.Repartitioner, prior live.LocateFunc, wantMode live.CycleMode) {
		b.Helper()
		b.ReportAllocs()
		b.ResetTimer()
		var moved, naive int
		var last *live.Repartition
		for i := 0; i < b.N; i++ {
			res, err := rep.RepartitionDrift(win.Snapshot(), prior, 1.0)
			if err != nil {
				b.Fatal(err)
			}
			if res.Mode != wantMode {
				b.Fatalf("cycle ran in mode %q, want %q", res.Mode, wantMode)
			}
			plan := live.BuildPlanSets(res.Tuples, res.Deployed, res.Assignments)
			moved, naive = len(plan.Moves), res.NaiveDiff.Moved
			last = res
		}
		b.ReportMetric(float64(moved), "moved")
		b.ReportMetric(float64(naive), "naive-moved")
		b.ReportMetric(float64(last.PhaseGraph.Milliseconds()), "graph-ms")
		b.ReportMetric(float64(last.PhaseCut.Milliseconds()), "cut-ms")
		b.ReportMetric(float64(last.PhaseRelabel.Milliseconds()), "relabel-ms")
	}

	base := live.RepartitionConfig{
		K:     8,
		Graph: graph.Options{Replication: true, Coalesce: true, Seed: 3},
		Metis: metis.Options{Seed: 7},
	}
	b.Run("cold", func(b *testing.B) {
		cfg := base
		prior := deploy(b, cfg)
		cfg.Metis.Seed = 8
		rep, err := live.NewRepartitioner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		measure(b, rep, prior, live.ModeFull)
	})
	b.Run("warm", func(b *testing.B) {
		cfg := base
		prior := deploy(b, cfg)
		cfg.Metis.Seed = 8
		cfg.WarmStart = true
		cfg.FullCutEveryN = -1
		cfg.DriftCutThreshold = -1
		rep, err := live.NewRepartitioner(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Converge once outside the timer: the measured iterations then
		// start from the placement a previous warm cycle deployed, i.e.
		// the steady state.
		converged, err := rep.RepartitionDrift(win.Snapshot(), prior, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		if converged.Mode != live.ModeWarm {
			b.Fatalf("convergence cycle ran in mode %q, want %q", converged.Mode, live.ModeWarm)
		}
		measure(b, rep, converged.LocateFunc(), live.ModeWarm)
	})
}

// BenchmarkAblationReplication compares the graph with and without the
// replicated-tuple star expansion (§4.1 / Fig. 3): the metric is the
// min-cut the partitioner achieves.
func BenchmarkAblationReplication(b *testing.B) {
	w := workloads.Epinions(workloads.EpinionsConfig{
		Users: 500, Items: 250, Communities: 5, Txns: 4000, Seed: 11,
	})
	for _, repl := range []bool{true, false} {
		name := "off"
		if repl {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mustBuild(graph.Build(w.Trace, graph.Options{Replication: repl, Seed: 3}))
				_, cut, err := g.Partition(2, metis.Options{Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(cut), "edgecut")
			}
		})
	}
}

// BenchmarkAblationCoalescing measures the §5.1 tuple-coalescing
// heuristic: node-count reduction at equal workloads.
func BenchmarkAblationCoalescing(b *testing.B) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: 30, Items: 200, InitialOrders: 10, Txns: 2000, Seed: 12,
	})
	for _, coalesce := range []bool{false, true} {
		name := "off"
		if coalesce {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mustBuild(graph.Build(w.Trace, graph.Options{Replication: true, Coalesce: coalesce, Seed: 3}))
				b.ReportMetric(float64(g.NumNodes()), "nodes")
			}
		})
	}
}

// BenchmarkAblationSampling measures partitioning-quality degradation as
// transaction-level sampling gets more aggressive (§5.1/§6.2): the metric
// is the distributed fraction of the graph's own placement on the full
// trace.
func BenchmarkAblationSampling(b *testing.B) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: 30, Items: 200, InitialOrders: 10, Txns: 2500, Seed: 13,
	})
	full := workload.CompactTrace(w.Trace)
	for _, rate := range []float64{1.0, 0.5, 0.25, 0.1} {
		b.Run(pctName(rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := mustBuild(graph.Build(w.Trace, graph.Options{Replication: true, TxnSampleRate: rate, Seed: 3}))
				parts, _, err := g.Partition(2, metis.Options{Seed: 5})
				if err != nil {
					b.Fatal(err)
				}
				sets := g.DenseAssignmentsFor(full, parts)
				cost := partition.EvaluateAssignmentsCompact(full, sets)
				b.ReportMetric(100*cost.DistributedFrac(), "%distributed")
			}
		})
	}
}

func pctName(rate float64) string {
	switch rate {
	case 1.0:
		return "100pct"
	case 0.5:
		return "50pct"
	case 0.25:
		return "25pct"
	default:
		return "10pct"
	}
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workloads"
)

// HyperRow compares the clique-expansion pipeline (Build + PartKway)
// against the hypergraph-native one (BuildHyper + PartHKway) on the same
// trace: graph sizes, build and partition times, the representation-
// specific objectives (edge cut vs connectivity cost), and the shared
// ground-truth metric — the fraction of trace transactions left
// distributed under each partitioning's replica placement, scored by
// partition.EvaluateAssignmentsCompact (reads served by any replica,
// writes reaching every replica).
type HyperRow struct {
	Dataset    string
	Partitions int

	CliqueEdges int
	Nets        int

	CliqueBuildMS float64
	HyperBuildMS  float64
	CliquePartMS  float64
	HyperPartMS   float64

	EdgeCut  int64
	ConnCost int64

	CliqueDistFrac float64
	HyperDistFrac  float64
}

// hyperWorkloads builds the comparison traces (scaled).
func hyperWorkloads(s Scale) []*workloads.Workload {
	return []*workloads.Workload{
		workloads.TPCC(workloads.TPCCConfig{
			Warehouses: s.scaled(10, 4), Customers: s.scaled(120, 30), Items: s.scaled(2000, 300),
			InitialOrders: s.scaled(20, 5), Txns: s.scaled(20000, 3000), Seed: 2,
		}),
		workloads.Epinions(workloads.EpinionsConfig{
			Users: s.scaled(5000, 500), Items: s.scaled(2500, 250), Communities: 10,
			Txns: s.scaled(20000, 3000), Seed: 1,
		}),
		workloads.YCSBE(workloads.YCSBConfig{Txns: s.scaled(20000, 3000), Seed: 3}),
	}
}

// Hyper runs the clique-vs-hypergraph comparison across the workloads
// and partition counts, one row per (dataset, k).
func Hyper(ks []int, s Scale) []HyperRow {
	if len(ks) == 0 {
		ks = []int{2, 8, 64}
	}
	gopts := graph.Options{Replication: true, Coalesce: true, Seed: 4}
	var rows []HyperRow
	for _, w := range hyperWorkloads(s) {
		start := time.Now()
		cg, err := graph.Build(w.Trace, gopts)
		if err != nil {
			panic(err)
		}
		cliqueBuild := time.Since(start)

		start = time.Now()
		hg, err := graph.BuildHyper(w.Trace, gopts)
		if err != nil {
			panic(err)
		}
		hyperBuild := time.Since(start)

		for _, k := range ks {
			start = time.Now()
			cparts, cut, err := cg.Partition(k, metis.Options{Seed: 7})
			if err != nil {
				panic(err)
			}
			cliquePart := time.Since(start)

			start = time.Now()
			hparts, conn, err := hg.Partition(k, metis.Options{Seed: 7})
			if err != nil {
				panic(err)
			}
			hyperPart := time.Since(start)

			ccost := partition.EvaluateAssignmentsCompact(cg.Compact, cg.DenseAssignments(cparts))
			hcost := partition.EvaluateAssignmentsCompact(hg.Compact, hg.DenseAssignments(hparts))
			rows = append(rows, HyperRow{
				Dataset:        w.Name,
				Partitions:     k,
				CliqueEdges:    cg.NumEdges(),
				Nets:           hg.NumEdges(),
				CliqueBuildMS:  cliqueBuild.Seconds() * 1000,
				HyperBuildMS:   hyperBuild.Seconds() * 1000,
				CliquePartMS:   cliquePart.Seconds() * 1000,
				HyperPartMS:    hyperPart.Seconds() * 1000,
				EdgeCut:        cut,
				ConnCost:       conn,
				CliqueDistFrac: ccost.DistributedFrac(),
				HyperDistFrac:  hcost.DistributedFrac(),
			})
		}
	}
	return rows
}

// PrintHyper renders the clique-vs-hypergraph comparison.
func PrintHyper(w io.Writer, rows []HyperRow) {
	fmt.Fprintln(w, "Hypergraph vs clique expansion: same trace, same node layout, both partitioned at seed 7")
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset,
			fmt.Sprintf("%d", r.Partitions),
			fmt.Sprintf("%d", r.CliqueEdges),
			fmt.Sprintf("%d", r.Nets),
			fmt.Sprintf("%.1f", r.CliqueBuildMS),
			fmt.Sprintf("%.1f", r.HyperBuildMS),
			fmt.Sprintf("%.1f", r.CliquePartMS),
			fmt.Sprintf("%.1f", r.HyperPartMS),
			fmt.Sprintf("%d", r.EdgeCut),
			fmt.Sprintf("%d", r.ConnCost),
			pct(r.CliqueDistFrac),
			pct(r.HyperDistFrac),
		})
	}
	table(w, []string{"dataset", "parts", "edges", "nets", "cbuild ms", "hbuild ms",
		"cpart ms", "hpart ms", "edgecut", "conncost", "clique dist", "hyper dist"}, out)
}

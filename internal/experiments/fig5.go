package experiments

import (
	"fmt"
	"io"
	"time"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/workloads"
)

// Fig5Row is one point of Figure 5: partitioning time for one dataset's
// graph at one partition count.
type Fig5Row struct {
	Dataset    string
	Partitions int
	Nodes      int
	Edges      int
	Seconds    float64
	EdgeCut    int64
}

// Table1Row reports graph sizes (Table 1) for a dataset, alongside the
// paper's full-scale numbers for reference.
type Table1Row struct {
	Dataset string
	Tuples  int
	Txns    int
	Nodes   int
	Edges   int

	PaperTuples string
	PaperNodes  string
	PaperEdges  string
}

// fig5Graphs builds the three graphs of Table 1 (scaled).
func fig5Graphs(s Scale) []struct {
	name  string
	g     *graph.Graph
	paper [3]string
} {
	epi := workloads.Epinions(workloads.EpinionsConfig{
		Users: s.scaled(5000, 500), Items: s.scaled(2500, 250), Communities: 10,
		Txns: s.scaled(20000, 3000), Seed: 1,
	})
	tpcc := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: s.scaled(10, 4), Customers: s.scaled(120, 30), Items: s.scaled(2000, 300),
		InitialOrders: s.scaled(20, 5), Txns: s.scaled(20000, 3000), Seed: 2,
	})
	tpce := workloads.TPCE(workloads.TPCEConfig{
		Customers: s.scaled(2000, 300), Securities: s.scaled(1000, 150),
		Txns: s.scaled(20000, 3000), Seed: 3,
	})
	build := func(w *workloads.Workload) *graph.Graph {
		g, err := graph.Build(w.Trace, graph.Options{Replication: true, Coalesce: true, Seed: 4})
		if err != nil {
			panic(err)
		}
		return g
	}
	return []struct {
		name  string
		g     *graph.Graph
		paper [3]string
	}{
		{"Epinions", build(epi), [3]string{"2.5M", "0.6M", "5M"}},
		{"TPCC-50", build(tpcc), [3]string{"25.0M", "2.5M", "65M"}},
		{"TPC-E", build(tpce), [3]string{"2.0M", "3.0M", "100M"}},
	}
}

// Fig5 measures kmetis-style partitioning time for growing partition
// counts on the three Table-1 graphs. The paper's shape: runtime grows
// mildly with k and roughly linearly with edge count.
func Fig5(ks []int, s Scale) []Fig5Row {
	if len(ks) == 0 {
		ks = []int{2, 4, 8, 16, 32, 64, 128, 256, 512}
	}
	var rows []Fig5Row
	for _, d := range fig5Graphs(s) {
		for _, k := range ks {
			start := time.Now()
			_, cut, err := d.g.Partition(k, metis.Options{Seed: 7})
			if err != nil {
				panic(err)
			}
			rows = append(rows, Fig5Row{
				Dataset:    d.name,
				Partitions: k,
				Nodes:      d.g.NumNodes(),
				Edges:      d.g.NumEdges(),
				Seconds:    time.Since(start).Seconds(),
				EdgeCut:    cut,
			})
		}
	}
	return rows
}

// Table1 reports the graph sizes used by Fig. 5.
func Table1(s Scale) []Table1Row {
	var rows []Table1Row
	for _, d := range fig5Graphs(s) {
		rows = append(rows, Table1Row{
			Dataset:     d.name,
			Tuples:      d.g.Intern.Len(),
			Txns:        d.g.Compact.NumTxns(),
			Nodes:       d.g.NumNodes(),
			Edges:       d.g.NumEdges(),
			PaperTuples: d.paper[0],
			PaperNodes:  d.paper[1],
			PaperEdges:  d.paper[2],
		})
	}
	return rows
}

// PrintFig5 renders the Fig. 5 series.
func PrintFig5(w io.Writer, rows []Fig5Row) {
	fmt.Fprintln(w, "Figure 5: graph partitioning time vs number of partitions")
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset,
			fmt.Sprintf("%d", r.Partitions),
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Edges),
			fmt.Sprintf("%.3f", r.Seconds),
			fmt.Sprintf("%d", r.EdgeCut),
		})
	}
	table(w, []string{"dataset", "parts", "nodes", "edges", "seconds", "edgecut"}, out)
}

// PrintTable1 renders Table 1 with the paper's numbers for reference.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table 1: graph sizes (this run vs paper full-scale)")
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Dataset,
			fmt.Sprintf("%d", r.Tuples),
			fmt.Sprintf("%d", r.Txns),
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%d", r.Edges),
			r.PaperTuples, r.PaperNodes, r.PaperEdges,
		})
	}
	table(w, []string{"dataset", "tuples", "txns", "nodes", "edges", "paper tuples", "paper nodes", "paper edges"}, out)
}

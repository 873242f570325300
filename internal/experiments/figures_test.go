package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestFig4WithinManual pins how far Schism's best learned strategy (the
// lookup table or its range-predicate explanation) stays from each
// dataset's best-known manual partitioning in the quick Fig. 4 table:
// min(schism, range) ≤ manual + δ, every value compared at the table's
// printed resolution of 0.1 percentage points. The δ values are today's
// gaps; a change that widens one fails here, and a change that closes
// one should lower its δ. It also pins which datasets validation sends
// to hashing: only YCSB-A and RANDOM, whose accesses have no structure a
// lookup table or predicate can exploit.
func TestFig4WithinManual(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick Fig. 4 table takes about 12 s")
	}
	const noManual = -1 // TPC-E has no manual partitioning to compare with
	want := []struct {
		dataset string
		k       int
		delta   float64 // percentage points
		hashing bool
	}{
		{"YCSB-A", 2, 0, true},
		{"YCSB-E", 2, 2.6, false},
		{"TPCC-2W", 2, 0, false},
		{"TPCC-2W (sampled)", 2, 18.6, false},
		{"TPCC-50W", 10, 7.9, false},
		{"TPC-E", 10, noManual, false},
		{"EPINIONS", 2, 0.8, false},
		{"EPINIONS", 10, 13.6, false},
		{"RANDOM", 10, 0.2, true},
	}
	rows := Fig4(Scale{Quick: true})
	var sb strings.Builder
	PrintFig4(&sb, rows)
	t.Logf("\n%s", sb.String())
	if len(rows) != len(want) {
		t.Fatalf("Fig. 4 has %d rows, want %d", len(rows), len(want))
	}
	tenths := func(frac float64) int64 { return int64(math.Round(1000 * frac)) }
	for i, w := range want {
		r := rows[i]
		name := fmt.Sprintf("%s k%d", w.dataset, w.k)
		if r.Dataset != w.dataset || r.Partitions != w.k {
			t.Fatalf("row %d is %s k%d, want %s", i, r.Dataset, r.Partitions, name)
		}
		if (r.Chosen == "hashing") != w.hashing {
			t.Errorf("%s: validation chose %s; only YCSB-A and RANDOM should choose hashing", name, r.Chosen)
		}
		if w.delta == noManual {
			continue
		}
		best := r.Schism
		if r.Range >= 0 && r.Range < best {
			best = r.Range
		}
		if tenths(best) > tenths(r.Manual)+int64(math.Round(10*w.delta)) {
			t.Errorf("%s: best learned strategy %s is %.1f pp above manual %s, allowed %.1f",
				name, pct(best), float64(tenths(best)-tenths(r.Manual))/10, pct(r.Manual), w.delta)
		}
	}
}

// TestPaperFiguresQuick runs the other quick paper experiments: Table 1's
// graph sizes are today's exactly (trace generation and graph
// construction are deterministic), Fig. 5 partitions the same graphs
// Table 1 describes, and every Fig. 1 and Fig. 6 point commits
// transactions, with none of Fig. 6's failing.
func TestPaperFiguresQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("the quick Fig. 1, Fig. 5, Fig. 6 and Table 1 runs take about 9 s")
	}
	s := Scale{Quick: true}
	var sb strings.Builder

	table1 := Table1(s)
	PrintTable1(&sb, table1)
	wantTable1 := []Table1Row{
		{Dataset: "Epinions", Tuples: 6079, Txns: 3000, Nodes: 19873, Edges: 75671},
		{Dataset: "TPCC-50", Tuples: 21354, Txns: 3000, Nodes: 63822, Edges: 1819557},
		{Dataset: "TPC-E", Tuples: 10016, Txns: 3000, Nodes: 29465, Edges: 178847},
	}
	if len(table1) != len(wantTable1) {
		t.Fatalf("Table 1 has %d rows, want %d", len(table1), len(wantTable1))
	}
	for i, w := range wantTable1 {
		r := table1[i]
		if r.Dataset != w.Dataset || r.Tuples != w.Tuples || r.Txns != w.Txns || r.Nodes != w.Nodes || r.Edges != w.Edges {
			t.Errorf("Table 1 row %d: %s tuples=%d txns=%d nodes=%d edges=%d, want %s %d/%d/%d/%d",
				i, r.Dataset, r.Tuples, r.Txns, r.Nodes, r.Edges, w.Dataset, w.Tuples, w.Txns, w.Nodes, w.Edges)
		}
	}

	fig5 := Fig5([]int{2, 8, 32}, s)
	PrintFig5(&sb, fig5)
	if len(fig5) != 3*len(table1) {
		t.Fatalf("Fig. 5 has %d points, want %d", len(fig5), 3*len(table1))
	}
	for i, p := range fig5 {
		g := table1[i/3]
		if p.Dataset != g.Dataset || p.Nodes != g.Nodes || p.Edges != g.Edges {
			t.Errorf("Fig. 5 point %s k%d: %d nodes, %d edges; Table 1 has %s with %d nodes, %d edges",
				p.Dataset, p.Partitions, p.Nodes, p.Edges, g.Dataset, g.Nodes, g.Edges)
		}
	}

	fig1, err := Fig1(s)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig1(&sb, fig1)
	for _, r := range fig1 {
		if r.SingleTPS <= 0 || (r.Servers > 1 && r.DistributedTPS <= 0) {
			t.Errorf("Fig. 1 at %d servers: single %.0f tps, distributed %.0f tps", r.Servers, r.SingleTPS, r.DistributedTPS)
		}
	}

	fig6, err := Fig6(s)
	if err != nil {
		t.Fatal(err)
	}
	PrintFig6(&sb, fig6)
	for _, r := range fig6 {
		if r.FixedTotalTPS <= 0 || r.PerMachineTPS <= 0 || r.failed != 0 {
			t.Errorf("Fig. 6 at %d partitions: %.0f and %.0f tps, %d failed", r.Partitions, r.FixedTotalTPS, r.PerMachineTPS, r.failed)
		}
	}
	t.Logf("\n%s", sb.String())
}

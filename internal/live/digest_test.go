package live

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/workload"
	"schism/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/answer.golden from this run")

const goldenPath = "testdata/answer.golden"

// liveDigestCase is one three-cycle repartitioner run of the answer digest.
type liveDigestCase struct {
	name     string
	tr       *workload.Trace
	k        int
	window   int // capture window capacity; the first cycle sees it full
	turnover int // transactions recorded before each later cycle
	graph    graph.Options
}

// liveDigestCases covers TPC-C under replication, plain, sampled and
// unreplicated graphs, a window small enough that Record reinterns
// between cycles, and YCSB groups.
func liveDigestCases() []liveDigestCase {
	tpcc := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 4, Districts: 10, Customers: 30, Items: 200, InitialOrders: 10, Txns: 1500, Seed: 2,
	}).Trace
	ycsb := workloads.YCSBGroups(workloads.YCSBGroupsConfig{Rows: 1600, GroupSize: 4, Txns: 1500, Seed: 1}).Trace
	return []liveDigestCase{
		{"tpcc4w/k8/coalesce", tpcc, 8, 800, 300, graph.Options{Coalesce: true, Replication: true, Seed: 3}},
		{"tpcc4w/k2/plain", tpcc, 2, 800, 300, graph.Options{Replication: true, Seed: 3}},
		{"tpcc4w/k8/sample0.5", tpcc, 8, 800, 300, graph.Options{Coalesce: true, Replication: true, TxnSampleRate: 0.5, Seed: 3}},
		{"tpcc4w/k8/norepl", tpcc, 8, 500, 400, graph.Options{Coalesce: true, Seed: 3}},
		{"tpcc4w/k4/small-window", tpcc, 4, 200, 600, graph.Options{Coalesce: true, Replication: true, Seed: 5}},
		{"ycsb-groups/k4/coalesce", ycsb, 4, 600, 400, graph.Options{Coalesce: true, Seed: 9}},
	}
}

// liveAnswerDigest runs three cycles through one Repartitioner — a full
// cut of the first window, a warm cycle after turnover more transactions
// and a full cut forced by drift after as many again — deploying each
// cycle's placement before the next. Per cycle it hashes the window's
// score under the deployed placement, the cycle mode, every tuple's new
// replica set and the migration plan.
func liveAnswerDigest(t *testing.T, c liveDigestCase) uint64 {
	t.Helper()
	if need := c.window + 2*c.turnover; c.tr.Len() < need {
		t.Fatalf("%s: trace has %d transactions, need %d", c.name, c.tr.Len(), need)
	}
	win := NewWindow(WindowConfig{Capacity: c.window})
	rep := mustRep(t, RepartitionConfig{K: c.k, Graph: c.graph, Metis: metis.Options{Seed: 7}, WarmStart: true})
	deployed := make(map[workload.TupleID][]int)
	locate := func(id workload.TupleID) []int { return deployed[id] }
	h := fnv.New64a()
	next := 0
	for cycle, step := range []struct {
		record int
		locate LocateFunc
		drift  float64
		want   CycleMode
	}{
		{c.window, nil, 0, ModeFull},
		{c.turnover, locate, 1, ModeWarm},
		{c.turnover, locate, 10, ModeFull},
	} {
		for _, tx := range c.tr.Txns[next : next+step.record] {
			win.Record(tx.Accesses)
		}
		next += step.record
		snap := win.Snapshot()
		score := ScoreWindow(snap, c.k, locate)
		res, err := rep.RepartitionDrift(snap, step.locate, step.drift)
		if err != nil {
			t.Fatalf("%s: cycle %d: %v", c.name, cycle, err)
		}
		if res.Mode != step.want {
			t.Fatalf("%s: cycle %d ran %s, want %s", c.name, cycle, res.Mode, step.want)
		}
		fmt.Fprintln(h, "cycle", cycle, res.Mode, score.Txns, score.Distributed, score.Imbalance)
		for i, id := range res.Tuples {
			fmt.Fprintln(h, id.Table, id.Key, res.Assignments[i])
		}
		for _, m := range BuildPlanSets(res.Tuples, res.Deployed, res.Assignments).Moves {
			fmt.Fprintln(h, "move", m.Table, m.Key, m.CopyFrom, m.Adds, m.Dels, m.To)
		}
		for i, id := range res.Tuples {
			deployed[id] = res.Assignments[i]
		}
	}
	return h.Sum64()
}

// TestAnswerDigest is the live loop's same-answer check: one digest per
// liveDigestCases run (liveAnswerDigest), compared with
// testdata/answer.golden. Rewrite the golden with -update only for a
// change meant to move the live loop's answer, and say which runs changed
// and why. A failure names every changed run.
func TestAnswerDigest(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs every run: run without -short")
	}
	var golden map[string]string
	if !*update {
		golden = readGolden(t)
	}
	var lines, changed []string
	for _, c := range liveDigestCases() {
		if testing.Short() && c.name != "tpcc4w/k8/coalesce" {
			continue
		}
		sum := fmt.Sprintf("%016x", liveAnswerDigest(t, c))
		lines = append(lines, c.name+" "+sum)
		if !*update && golden[c.name] != sum {
			changed = append(changed, fmt.Sprintf("%s: %s, golden %q", c.name, sum, golden[c.name]))
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), goldenPath)
		return
	}
	if len(changed) > 0 {
		t.Errorf("%d of %d runs changed their answer:\n%s", len(changed), len(lines), strings.Join(changed, "\n"))
	}
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestAnswerDigest -update)", err)
	}
	defer f.Close()
	golden := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			golden[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return golden
}

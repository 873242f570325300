package core

import (
	"math"
	"strings"
	"testing"

	"schism/internal/lookup"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// cut returns full, or small under go test -short: the assertions below
// hold at both scales, the short configs just trade statistical margin
// for wall time (CI runs -short).
func cut(full, short int) int {
	if testing.Short() {
		return short
	}
	return full
}

func runPipeline(t *testing.T, w *workloads.Workload, k int, opts Options) *Result {
	t.Helper()
	opts.Partitions = k
	res, err := Run(Input{
		Trace:      w.Trace,
		Resolver:   w.Resolver(),
		KeyColumns: w.KeyColumns,
		DB:         w.DB,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTPCCExplanation reproduces §5.2: for TPC-C with 2 warehouses and 2
// partitions the pipeline must (a) partition stock/customer/district by
// warehouse, (b) replicate the item table, and (c) beat hash partitioning
// decisively.
func TestTPCCExplanation(t *testing.T) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: cut(30, 20), Items: cut(200, 120), InitialOrders: cut(12, 8), Txns: cut(3000, 1200), Seed: 42,
	})
	res := runPipeline(t, w, 2, Options{Seed: 7})

	if res.Range == nil {
		t.Fatalf("no explanation found:\n%s", res.Report())
	}
	// stock must be explained by s_w_id (s_i_id discarded).
	stock := res.Range.Tables["stock"]
	if stock == nil {
		t.Fatalf("no rules for stock:\n%s", res.Report())
	}
	for _, rule := range stock.Rules {
		for _, c := range rule.Conds {
			if c.Column != "s_w_id" {
				t.Errorf("stock rule uses %s; want s_w_id only (rule %v)", c.Column, rule)
			}
		}
		if len(rule.Parts) != 1 {
			t.Errorf("stock should not be replicated: %v", rule)
		}
	}
	// The two warehouses must land on different partitions.
	wh := res.Range.Tables["warehouse"]
	if wh == nil {
		t.Fatalf("no rules for warehouse:\n%s", res.Report())
	}
	// item must be replicated to both partitions.
	item := res.Range.Tables["item"]
	if item == nil {
		t.Fatalf("no rules for item:\n%s", res.Report())
	}
	repl := false
	for _, rule := range item.Rules {
		if len(rule.Parts) == 2 {
			repl = true
		}
	}
	if !repl {
		t.Errorf("item table not replicated: %+v\n%s", item.Rules, res.Report())
	}

	// Range predicates must decisively beat key hashing (paper: ~3-4% vs
	// ~97% at 2 warehouses — nearly every multi-statement txn crosses
	// partitions under key hashing).
	rangeFrac := res.Costs["range-predicates"].DistributedFrac()
	hashFrac := res.Costs["hashing"].DistributedFrac()
	if rangeFrac > 0.25 {
		t.Errorf("range-predicates %.1f%% distributed; want < 25%%\n%s", 100*rangeFrac, res.Report())
	}
	if hashFrac < 0.5 {
		t.Errorf("hashing %.1f%% distributed; expected terrible", 100*hashFrac)
	}
	// The validation phase must not pick hashing or replication here.
	if res.ChosenName == "hashing" || res.ChosenName == "replication" {
		t.Errorf("validation chose %s\n%s", res.ChosenName, res.Report())
	}
}

// TestTPCCMatchesManual checks Schism lands in the same cost ballpark as
// the expert warehouse partitioning (Fig. 4, TPCC-2W).
func TestTPCCMatchesManual(t *testing.T) {
	cfg := workloads.TPCCConfig{Warehouses: 2, Customers: cut(30, 20), Items: cut(200, 120), InitialOrders: cut(12, 8), Txns: cut(3000, 1200), Seed: 11}
	w := workloads.TPCC(cfg)
	res := runPipeline(t, w, 2, Options{Seed: 3})
	_, test := w.Trace.Split(0.5)
	manual := partition.Evaluate(test, w.Manual(2), w.Resolver())
	schism := res.Costs[res.ChosenName]
	if schism.DistributedFrac() > manual.DistributedFrac()+0.05 {
		t.Errorf("schism %.2f%% vs manual %.2f%%: should match within 5pp\n%s",
			100*schism.DistributedFrac(), 100*manual.DistributedFrac(), res.Report())
	}
}

// TestYCSBAPicksHashing reproduces the Fig. 4 YCSB-A experiment: every
// transaction touches one tuple, so everything (except replication) costs
// zero and validation must choose the SIMPLEST strategy — hashing.
func TestYCSBAPicksHashing(t *testing.T) {
	w := workloads.YCSBA(workloads.YCSBConfig{Rows: cut(5000, 2000), Txns: cut(4000, 1500), Seed: 1})
	res := runPipeline(t, w, 2, Options{Seed: 5})
	if res.ChosenName != "hashing" {
		t.Errorf("chose %s, want hashing\n%s", res.ChosenName, res.Report())
	}
	if frac := res.Costs["hashing"].DistributedFrac(); frac != 0 {
		t.Errorf("hashing frac = %f, want 0", frac)
	}
}

// TestYCSBERangeBeatsHashing reproduces the Fig. 4 YCSB-E experiment:
// scans make hashing terrible, and the explanation must recover a range
// partitioning close to manual.
func TestYCSBERangeBeatsHashing(t *testing.T) {
	w := workloads.YCSBE(workloads.YCSBConfig{Rows: cut(5000, 2000), Txns: cut(4000, 1500), MaxScan: 20, Seed: 2})
	res := runPipeline(t, w, 2, Options{Seed: 5})
	hashFrac := res.Costs["hashing"].DistributedFrac()
	if hashFrac < 0.3 {
		t.Fatalf("hashing frac = %.2f; scans should make hashing bad", hashFrac)
	}
	chosenFrac := res.Costs[res.ChosenName].DistributedFrac()
	if chosenFrac > hashFrac/2 {
		t.Errorf("chosen %s frac %.2f not ≪ hashing %.2f\n%s", res.ChosenName, chosenFrac, hashFrac, res.Report())
	}
	if res.ChosenName == "hashing" {
		t.Errorf("validation picked hashing for a scan workload\n%s", res.Report())
	}
}

// TestRandomFallsBackToHashing reproduces the Fig. 4 Random experiment:
// with no exploitable locality the pipeline must fall back to hashing.
func TestRandomFallsBackToHashing(t *testing.T) {
	w := workloads.Random(workloads.RandomConfig{Rows: cut(20000, 8000), Txns: cut(3000, 1200), Seed: 3})
	res := runPipeline(t, w, 10, Options{Seed: 5})
	if res.ChosenName != "hashing" {
		t.Errorf("chose %s, want hashing\n%s", res.ChosenName, res.Report())
	}
	// Full replication must be the WORST strategy (every txn writes).
	if res.Costs["replication"].DistributedFrac() != 1 {
		t.Errorf("replication frac = %f, want 1.0", res.Costs["replication"].DistributedFrac())
	}
}

// TestEpinionsLookupWins reproduces the Fig. 4 Epinions experiments: the
// hidden community structure is invisible to range predicates over ids,
// so the fine-grained lookup table must win and beat hashing dramatically.
func TestEpinionsLookupWins(t *testing.T) {
	w := workloads.Epinions(workloads.EpinionsConfig{
		Users: 400, Items: 200, Communities: 4, ReviewsPerUser: 6, TrustPerUser: 4, Txns: cut(4000, 2500), Seed: 4,
	})
	res := runPipeline(t, w, 2, Options{Seed: 9})
	lookupFrac := res.Costs["lookup-table"].DistributedFrac()
	hashFrac := res.Costs["hashing"].DistributedFrac()
	if lookupFrac > 0.35 {
		t.Errorf("lookup frac %.2f too high\n%s", lookupFrac, res.Report())
	}
	if hashFrac < 2*lookupFrac {
		t.Errorf("lookup (%.2f) should beat hashing (%.2f) by ≥2x\n%s", lookupFrac, hashFrac, res.Report())
	}
	if res.ChosenName == "hashing" {
		t.Errorf("validation picked hashing\n%s", res.Report())
	}
	// Compare against the students' manual strategy: Schism should be at
	// least competitive (paper: 4.5% vs 6%).
	_, test := w.Trace.Split(0.5)
	manual := partition.Evaluate(test, w.Manual(2), w.Resolver())
	if lookupFrac > manual.DistributedFrac()+0.05 {
		t.Errorf("lookup %.2f%% much worse than manual %.2f%%",
			100*lookupFrac, 100*manual.DistributedFrac())
	}
}

func TestPipelineErrors(t *testing.T) {
	if _, err := Run(Input{Trace: workload.NewTrace()}, Options{Partitions: 2}); err == nil {
		t.Error("empty trace should error")
	}
	w := workloads.YCSBA(workloads.YCSBConfig{Rows: 100, Txns: 50, Seed: 1})
	if _, err := Run(Input{Trace: w.Trace}, Options{Partitions: 0}); err == nil {
		t.Error("k=0 should error")
	}
}

// TestRunNonFiniteTrainFrac: a NaN or infinite training split means the
// default, as any other value outside (0, 1) does, instead of a slice
// bounds panic in Split.
func TestRunNonFiniteTrainFrac(t *testing.T) {
	w := workloads.YCSBA(workloads.YCSBConfig{Rows: 200, Txns: 200, Seed: 1})
	want, err := Run(Input{Trace: w.Trace, KeyColumns: w.KeyColumns}, Options{Partitions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		res, err := Run(Input{Trace: w.Trace, KeyColumns: w.KeyColumns, TrainFrac: frac}, Options{Partitions: 2, Seed: 1})
		if err != nil {
			t.Fatalf("TrainFrac %v: %v", frac, err)
		}
		if res.Stats != want.Stats || res.EdgeCut != want.EdgeCut {
			t.Errorf("TrainFrac %v: stats %+v cut %d, want the default split's %+v cut %d",
				frac, res.Stats, res.EdgeCut, want.Stats, want.EdgeCut)
		}
	}
}

// TestPartitionCountBound: k is capped by the lookup tables' one-byte
// partition ids; the cap is an error up front, not a panic in phase 3.
func TestPartitionCountBound(t *testing.T) {
	w := workloads.YCSBA(workloads.YCSBConfig{Rows: 2000, Txns: 1000, Seed: 1})
	for _, tc := range []struct {
		k  int
		ok bool
	}{{lookup.MaxPartitions, true}, {lookup.MaxPartitions + 1, false}} {
		_, err := Run(Input{Trace: w.Trace, KeyColumns: w.KeyColumns, DB: w.DB}, Options{Partitions: tc.k, Seed: 1})
		if tc.ok && err != nil {
			t.Errorf("k=%d: %v", tc.k, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "lookup.MaxPartitions")) {
			t.Errorf("k=%d: error %v, want one naming lookup.MaxPartitions", tc.k, err)
		}
	}
}

func TestReportRenders(t *testing.T) {
	w := workloads.YCSBA(workloads.YCSBConfig{Rows: 500, Txns: 500, Seed: 1})
	res := runPipeline(t, w, 2, Options{Seed: 1})
	rep := res.Report()
	for _, want := range []string{"partitions=2", "hashing", "lookup-table", "->"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestNoResolverSkipsExplanation: without tuple attribute access the
// pipeline still produces lookup tables and baselines.
func TestNoResolverSkipsExplanation(t *testing.T) {
	w := workloads.YCSBA(workloads.YCSBConfig{Rows: 500, Txns: 500, Seed: 1})
	res, err := Run(Input{Trace: w.Trace, KeyColumns: w.KeyColumns}, Options{Partitions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Range != nil {
		t.Error("explanation should be skipped without a resolver")
	}
	if _, ok := res.Costs["lookup-table"]; !ok {
		t.Error("lookup strategy missing")
	}
}

// TestDisableReplicationAblation verifies the replication flag changes the
// graph: with replication off, no tuple may have more than one replica.
func TestDisableReplicationAblation(t *testing.T) {
	w := workloads.Epinions(workloads.EpinionsConfig{
		Users: 200, Items: 100, Communities: 2, Txns: cut(1500, 800), Seed: 6,
	})
	res := runPipeline(t, w, 2, Options{Seed: 2, DisableReplication: true})
	for id, parts := range res.Assignments {
		if len(parts) > 1 {
			t.Fatalf("tuple %v replicated with replication disabled", id)
		}
	}
}

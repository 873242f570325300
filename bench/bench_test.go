package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

var workloadNames = []string{"plan-tpcc", "txn-tpcc", "txn-ycsb-r3", "live-tpcc"}

// small runs a workload at a scale that finishes in well under a second.
// Op counts replace the clock on the txn workloads so Sig hashes repeat.
func small(t testing.TB, workload string, trace bool, dir string) *resultFile {
	t.Helper()
	cfg := config{workload: workload, seed: 7, seconds: 0.2, trace: trace, scale: 0.05, out: dir}
	if strings.HasPrefix(workload, "txn-") {
		cfg.ops = 150
	}
	res, err := runWorkload(cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// untraced caches each workload's first untraced run, which several
// tests read.
var untraced = map[string]*resultFile{}

func smallUntraced(t *testing.T, workload string) *resultFile {
	t.Helper()
	if untraced[workload] == nil {
		untraced[workload] = small(t, workload, false, t.TempDir())
	}
	return untraced[workload]
}

func TestWorkloadsEmitEveryMetricAndPassChecks(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			dir := t.TempDir()
			res, defs := smallUntraced(t, name), endToEnd
			if trace {
				res, defs = small(t, name, true, dir), perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s has unit %q, want %q", name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", name, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, m.Value)
				}
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", name, trace, c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if res.Meta.GoVersion == "" || res.Meta.Seed != 7 || res.Meta.NumCPU < 1 || len(res.Sizes) == 0 {
				t.Errorf("%s: run metadata incomplete: %+v sizes %v", name, res.Meta, res.Sizes)
			}
			if trace {
				checkSpanFile(t, filepath.Join(dir, name+".7.spans.json"))
				continue
			}
			// An untraced run still measures the timings it is not held to.
			for _, n := range []string{"driver.txn_per_s", "driver.cpu_us_per_txn", "driver.op_p50_ms"} {
				if res.Other[n].Value <= 0 {
					t.Errorf("%s: untraced run's %s = %v", name, n, res.Other[n].Value)
				}
			}
		}
	}
}

// checkSpanFile asserts spans are well formed: every child lies inside
// its parent and shares its id, self time is never negative, and each id
// has one root.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(f.Spans) == 0 || len(f.ByName) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	roots := map[int64]int{}
	for i, s := range f.Spans {
		if s.Span != i {
			t.Fatalf("%s: span %d numbered %d", path, i, s.Span)
		}
		if s.EndNS < s.StartNS || s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
			t.Errorf("%s: span %d %s: [%d,%d] self %d", path, i, s.Name, s.StartNS, s.EndNS, s.SelfNS)
		}
		if s.Parent < 0 {
			roots[s.ID]++
			continue
		}
		p := f.Spans[s.Parent]
		if p.ID != s.ID || s.StartNS < p.StartNS || s.EndNS > p.EndNS {
			t.Errorf("%s: span %d %s [%d,%d] id %d outside parent %s [%d,%d] id %d",
				path, i, s.Name, s.StartNS, s.EndNS, s.ID, p.Name, p.StartNS, p.EndNS, p.ID)
		}
	}
	for id, n := range roots {
		if n != 1 {
			t.Errorf("%s: id %d has %d roots", path, id, n)
		}
	}
}

// TestCountsRepeatForEqualSeeds: moved tuples, window scores, distributed
// counts, routing bytes and per-client Sig hashes are functions of the
// seed alone.
func TestCountsRepeatForEqualSeeds(t *testing.T) {
	for _, name := range workloadNames {
		a, b := smallUntraced(t, name), small(t, name, false, t.TempDir())
		if len(a.Counts) == 0 {
			t.Errorf("%s: no counts recorded", name)
		}
		ja, _ := json.Marshal(a.Counts)
		jb, _ := json.Marshal(b.Counts)
		if !bytes.Equal(ja, jb) {
			t.Errorf("%s: counts differ for equal seeds:\n%s\n%s", name, ja, jb)
		}
		// Which replica serves a read is drawn per transaction, so on
		// txn-tpcc the committed span is not a function of the seed.
		if a.Metrics["min_sites_per_txn"] != b.Metrics["min_sites_per_txn"] && name != "txn-tpcc" {
			t.Errorf("%s: min_sites_per_txn %v vs %v", name, a.Metrics["min_sites_per_txn"], b.Metrics["min_sites_per_txn"])
		}
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	def, err := readBenchDef(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []boundDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, tables %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.Name || got[i].Unit != w.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), tables %s (%s)", kind, i, got[i].Name, got[i].Unit, w.Name, w.Unit)
			}
			if got[i].Better != "lower" && got[i].Better != "higher" {
				t.Errorf("%s: better = %q", w.Name, got[i].Better)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	for _, m := range def.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if _, ok := workloadTable[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the bench does not have", w.Name)
		}
	}
	if want := append([]string(nil), workloadNames...); !reflect.DeepEqual(sorted(names), sorted(want)) {
		t.Errorf("workloads %v, want %v", names, want)
	}
}

func sorted(s []string) []string { sort.Strings(s); return s }

// TestQuartileSpreadMatchesPython pins the quartiles to what
// statistics.quantiles(range(1, 11), n=4) returns: [2.75, 5.5, 8.25].
func TestQuartileSpreadMatchesPython(t *testing.T) {
	vs := []float64{3, 1, 10, 2, 9, 4, 8, 5, 7, 6}
	if got, want := quartileSpread(vs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := boundDef{Name: "latency", Better: "lower", Bound: 0.10}
	higher := boundDef{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	// Seeds that differ widely are not noise: runs are judged pair by pair.
	seeds := []float64{70, 100, 130, 85, 115}
	times := func(vs []float64, f float64) []float64 {
		out := make([]float64, len(vs))
		for i, v := range vs {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name string
		def  boundDef
		a, b []float64
		want string
	}{
		{"same runs", lower, steady, steady, "ok"},
		{"within bound", lower, steady, times(steady, 1.05), "ok"},
		{"latency up 20%", lower, steady, times(steady, 1.2), "regressed"},
		{"latency down", lower, steady, times(steady, 0.8), "ok"},
		{"rate down 20%", higher, steady, times(steady, 0.8), "regressed"},
		{"rate up", higher, steady, times(steady, 1.2), "ok"},
		{"seeds differ, pairs agree", lower, seeds, times(seeds, 1.01), "ok"},
		{"seeds differ, every pair 20% worse", lower, seeds, times(seeds, 1.2), "regressed"},
		{"pairs scatter wider than bound", lower, steady, []float64{80, 125, 95, 130, 100}, "unresolved"},
		{"pairs scatter but every one better", lower, steady, []float64{40, 70, 50, 80, 60}, "ok"},
	} {
		if got, _, _ := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCompareDirs runs the comparator over result directories: a set of
// runs against itself is clean, and against a copy that allocates half
// as much again per transaction it fails.
func TestCompareDirs(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	for _, name := range workloadNames {
		res := *smallUntraced(t, name)
		for dir, factor := range map[string]float64{dirA: 1, dirB: 2.0 / 3} {
			slower := res
			slower.Metrics = map[string]metric{}
			for k, v := range res.Metrics {
				slower.Metrics[k] = v
			}
			slower.Metrics["allocs_per_txn"] = metric{res.Metrics["allocs_per_txn"].Value / factor, "count"}
			data, err := json.Marshal(slower)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name+".7.json"), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	bounds := filepath.Join("..", "BENCHMARK.json")
	var out bytes.Buffer
	if regressed, err := compareDirs(&out, bounds, dirA, dirA); err != nil || regressed {
		t.Errorf("A against A: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	regressed, err := compareDirs(&out, bounds, dirA, dirB)
	if err != nil || !regressed {
		t.Errorf("A against slower B: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(out.String(), "identical") {
		t.Errorf("comparator output lacks verdicts:\n%s", out.String())
	}
	if code := run([]string{"-compare", "-bounds", bounds, dirA, dirB}, &out, &out); code != 1 {
		t.Errorf("bench -compare exit code %d on a regression, want 1", code)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: 0, Start: 10, End: 40},
		{ID: 1, Name: "b", Parent: 0, Start: 30, End: 60}, // overlaps a: the union covers 10..60
		{ID: 1, Name: "leaf", Parent: 1, Start: 15, End: 20},
	}
	if got, want := selfTimes(spans), []int64{50, 25, 30, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestBadArgumentsExitNonZero(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nosuch", "-out", t.TempDir()},
		{"-workload", "plan-tpcc", "-seconds", "0"},
		{"-workload", "plan-tpcc", "-trace", "2"},
		{"-compare", "only-one-dir"},
	} {
		if code := run(args, &out, &out); code == 0 {
			t.Errorf("bench %v exited 0", args)
		}
	}
}

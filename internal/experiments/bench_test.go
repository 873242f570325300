package experiments

import (
	"strings"
	"testing"
)

// TestBenchExperiment is the end-to-end acceptance gate for the strategy
// comparison (and the CI bench-driver smoke): on TPC-C, Schism's learned
// lookup routing must beat hash partitioning on BOTH the distributed-
// transaction rate and measured throughput, reproducing the paper's
// headline claim on the simulated cluster. Skipped under -short: the
// race/test jobs exercise the driver directly; this is the dedicated
// bench job's test.
func TestBenchExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("bench comparison runs in the dedicated bench-driver CI job")
	}
	res, err := Bench(BenchConfig{}, Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	PrintBench(&sb, res)
	t.Logf("\n%s", sb.String())

	schism, hash := res.Row("schism"), res.Row("hash")
	repl := res.Row("replication")
	if schism == nil || hash == nil || repl == nil {
		t.Fatalf("missing strategy rows: %+v", res.Rows)
	}
	for _, row := range res.Rows {
		if row.Committed == 0 {
			t.Fatalf("strategy %q committed nothing", row.Strategy)
		}
		if row.Failed > row.Committed/10 {
			t.Errorf("strategy %q: %d permanent failures vs %d commits", row.Strategy, row.Failed, row.Committed)
		}
		if row.P50 <= 0 || row.P50 > row.P99 {
			t.Errorf("strategy %q: implausible latency quantiles p50=%v p99=%v", row.Strategy, row.P50, row.P99)
		}
	}
	// The paper's claim, measured end to end: strictly fewer distributed
	// transactions (with a wide margin — the learned placement routes the
	// warehouse-clustered mix almost entirely locally while hash scatters
	// every surrogate key) and strictly higher throughput.
	if schism.DistFrac >= hash.DistFrac/2 {
		t.Errorf("schism dist rate %.1f%% not well below hash %.1f%%", 100*schism.DistFrac, 100*hash.DistFrac)
	}
	if schism.TPS <= hash.TPS {
		t.Errorf("schism throughput %.0f not above hash %.0f", schism.TPS, hash.TPS)
	}
	if schism.TPS <= repl.TPS {
		t.Errorf("schism throughput %.0f not above full replication %.0f (write-heavy mix)", schism.TPS, repl.TPS)
	}
	if schism.RoutingBytes == 0 {
		t.Error("schism row missing routing-table footprint")
	}
}

// TestObsOverheadGuard is the CI overhead gate: the same quick TPC-C
// comparison with and without the observability registry attached. The
// bound is deliberately generous (25%) because a single quick in-process
// pair is noisy — the <3% figure is the frozen 3-iteration BENCH_8.json
// snapshot — but a gross regression (a lock or clock read on the
// disabled path) trips it reliably.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead comparison runs in the dedicated obs-smoke CI job")
	}
	run := func(obs bool) float64 {
		res, err := Bench(BenchConfig{Obs: obs, Strategies: []string{"schism"}}, Scale{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0].TPS
	}
	run(true) // warm caches so neither side pays first-run costs
	disabled := run(false)
	enabled := run(true)
	t.Logf("schism tps: metrics disabled %.0f, enabled %.0f (%.1f%% delta)",
		disabled, enabled, 100*(disabled-enabled)/disabled)
	if enabled < disabled*0.75 {
		t.Errorf("metrics-enabled throughput %.0f is more than 25%% below disabled %.0f", enabled, disabled)
	}
}

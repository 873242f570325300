package workloads

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"schism/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/trace.golden from this run")

const traceGoldenPath = "testdata/trace.golden"

// traceCase is one generator configuration of the trace digest. short
// marks the configurations -short keeps.
type traceCase struct {
	name  string
	short bool
	gen   func() *Workload
}

// traceCases is the digest's configuration matrix: every trace generator
// at a small size (all kept by -short), larger TPC-C, YCSB and Epinions
// traces, TPC-C under HotWarehousePicker, and the three TPC-C shapes the
// benchmark builds (plan-tpcc, txn-tpcc, live-tpcc) at its scale 0.05
// (-short) and at full scale.
func traceCases() []traceCase {
	cases := []traceCase{
		{"tpcc2w", true, func() *Workload {
			return TPCC(TPCCConfig{Warehouses: 2, Customers: 30, Items: 200, InitialOrders: 10, Txns: 1600, Seed: 42})
		}},
		{"tpcc8w", false, func() *Workload {
			return TPCC(TPCCConfig{Warehouses: 8, Customers: 20, Items: 200, InitialOrders: 8, Txns: 6000, Seed: 5})
		}},
		{"tpcc-defaults", false, func() *Workload { return TPCC(TPCCConfig{Seed: 3}) }},
		{"tpcc-hot", false, func() *Workload {
			return TPCC(TPCCConfig{Warehouses: 4, Customers: 20, Items: 100, InitialOrders: 6, Txns: 3000, Seed: 8,
				PickWarehouse: HotWarehousePicker(3, 0.6)})
		}},
		{"ycsb-a", true, func() *Workload { return YCSBA(YCSBConfig{Rows: 2000, Txns: 1000, Seed: 1}) }},
		{"ycsb-a-large", false, func() *Workload { return YCSBA(YCSBConfig{Rows: 20000, Txns: 10000, Seed: 4}) }},
		{"ycsb-e", true, func() *Workload { return YCSBE(YCSBConfig{Rows: 2000, Txns: 1000, MaxScan: 20, Seed: 2}) }},
		{"ycsb-e-large", false, func() *Workload { return YCSBE(YCSBConfig{Rows: 20000, Txns: 10000, Seed: 5}) }},
		{"epinions", true, func() *Workload {
			return Epinions(EpinionsConfig{Users: 300, Items: 150, Communities: 8, Txns: 2000, Seed: 7})
		}},
		{"epinions-defaults", false, func() *Workload { return Epinions(EpinionsConfig{Seed: 12}) }},
		{"tpce", true, func() *Workload { return TPCE(TPCEConfig{Customers: 150, Securities: 80, Txns: 2000, Seed: 6}) }},
		{"tpce-defaults", false, func() *Workload { return TPCE(TPCEConfig{Seed: 13}) }},
		{"random", true, func() *Workload { return Random(RandomConfig{Rows: 4000, Txns: 2000, Seed: 9}) }},
		{"simplecount", true, func() *Workload { return Simplecount(SimplecountConfig{Rows: 1000}, 2000, 10) }},
		{"ycsb-groups-p0", true, func() *Workload { return YCSBGroups(YCSBGroupsConfig{Txns: 2000, Seed: 11}) }},
		{"ycsb-groups-p1", true, func() *Workload { return YCSBGroups(YCSBGroupsConfig{Txns: 2000, Phase: 1, Seed: 11}) }},
		{"ycsb-groups-g5", false, func() *Workload {
			return YCSBGroups(YCSBGroupsConfig{Rows: 5000, GroupSize: 5, Txns: 5000, Phase: 1, Theta: 0.9, Seed: 14})
		}},
	}
	for _, scale := range []float64{0.05, 1} {
		short := scale < 1
		for _, s := range benchTPCCShapes(scale) {
			cfg := s.cfg
			cases = append(cases, traceCase{fmt.Sprintf("%s/scale%g", s.name, scale), short, func() *Workload { return TPCC(cfg()) }})
		}
	}
	return cases
}

// benchTPCCShape is one TPC-C configuration the benchmark module builds.
type benchTPCCShape struct {
	name string
	// cfg returns a fresh configuration: live-tpcc's picker has state.
	cfg func() TPCCConfig
}

// benchTPCCShapes mirrors the TPC-C configurations of bench/plan.go,
// bench/txn.go and bench/live.go at the given scale, seed 1. live-tpcc
// uses a copy of the benchmark's rotating hotspot picker.
func benchTPCCShapes(scale float64) []benchTPCCShape {
	return []benchTPCCShape{
		{"plan-tpcc", func() TPCCConfig {
			return TPCCConfig{Warehouses: 8, Districts: 10, Customers: 10, Items: 250, InitialOrders: 5, Txns: benchScaled(scale, 8000, 400), Seed: 1}
		}},
		{"txn-tpcc", func() TPCCConfig {
			return TPCCConfig{Warehouses: 8, Districts: 10, Customers: 15, Items: 150, InitialOrders: 5, Txns: benchScaled(scale, 6000, 600), Seed: 1}
		}},
		{"live-tpcc", func() TPCCConfig { return liveTPCCConfig(scale) }},
	}
}

// benchScaled is the benchmark's size rule: n times the scale, at least lo.
func benchScaled(scale float64, n, lo int) int { return max(int(float64(n)*scale), lo) }

// liveTPCCConfig is live-tpcc's trace configuration at the given scale
// (untraced, seed 1), with a fresh rotating hotspot picker.
func liveTPCCConfig(scale float64) TPCCConfig {
	window, perCycle := benchScaled(scale, 4000, 400), benchScaled(scale, 1000, 100)
	cycles := 2 * benchScaled(scale, 24, 6)
	return TPCCConfig{
		Warehouses: 16, Districts: 10, Customers: 30, Items: 200, InitialOrders: 10,
		Txns: (window + cycles*perCycle) * 21 / 20, Seed: 1,
		PickWarehouse: rotatingHotspot(window, 6*perCycle),
	}
}

// rotatingHotspot copies the benchmark's live-tpcc picker: 30 % of draws
// go to one warehouse, which moves 5 warehouses on every period draws
// after the first start.
func rotatingHotspot(start, period int) func(*rand.Rand, int) int {
	draws := 0
	return func(rng *rand.Rand, warehouses int) int {
		hot := (max(draws-start, 0)/period*5)%warehouses + 1
		draws++
		if rng.Float64() < 0.3 {
			return hot
		}
		return 1 + rng.Intn(warehouses)
	}
}

// traceDigest hashes a trace: its length and, per transaction, its id,
// every access (table, key, read or write) in order and every statement's
// text in order.
func traceDigest(tr *workload.Trace) uint64 {
	h := fnv.New64a()
	var buf []byte
	buf = strconv.AppendInt(buf, int64(len(tr.Txns)), 10)
	for _, tx := range tr.Txns {
		buf = append(buf, "\ntxn "...)
		buf = strconv.AppendInt(buf, int64(tx.ID), 10)
		for _, a := range tx.Accesses {
			buf = append(buf, "\nacc "...)
			buf = append(buf, a.Tuple.Table...)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, a.Tuple.Key, 10)
			buf = strconv.AppendBool(append(buf, ' '), a.Write)
		}
		for _, s := range tx.SQL {
			buf = append(buf, "\nsql "...)
			buf = append(buf, s...)
		}
		h.Write(buf)
		buf = buf[:0]
	}
	return h.Sum64()
}

func readTraceGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(traceGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with go test -run TestTraceDigest -update)", err)
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

// TestTraceDigest is the same-trace check: it runs every trace generator
// over a fixed configuration matrix and compares one 64-bit digest per
// configuration (traceDigest) with testdata/trace.golden. A change that is
// meant to leave the traces alone — the same accesses, the same text, the
// random draws in the same order — must pass it unmodified; one that
// changes a trace on purpose rewrites the golden with -update and says
// which configurations changed and why. A failure names every changed
// configuration.
func TestTraceDigest(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full matrix: run without -short")
	}
	var golden map[string]string
	if !*update {
		golden = readTraceGolden(t)
	}
	var lines, changed []string
	for _, c := range traceCases() {
		if testing.Short() && !c.short {
			continue
		}
		sum := fmt.Sprintf("%016x", traceDigest(c.gen().Trace))
		lines = append(lines, c.name+" "+sum)
		if !*update && golden[c.name] != sum {
			changed = append(changed, fmt.Sprintf("%s: %s, golden %q", c.name, sum, golden[c.name]))
		}
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(traceGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceGoldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), traceGoldenPath)
		return
	}
	if len(changed) > 0 {
		t.Errorf("%d of %d configurations changed their trace:\n%s", len(changed), len(lines), strings.Join(changed, "\n"))
	}
}

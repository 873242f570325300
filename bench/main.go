// Command bench is the repo's benchmark: four workloads over the Schism
// library, end-to-end metrics from an untraced run, per-layer metrics and
// a span file from a traced one, and a comparator for two sets of runs.
// See README.md for what each metric means and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"schism/internal/obs"
)

// config is one run's arguments.
type config struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured section
	trace    bool
	scale    float64 // multiplies every workload size; 1 is the benchmark
	ops      int     // >0: exactly this many measured transactions per client in place of seconds (txn-* only; tests set it so that Sig hashes repeat)
	out      string
}

// check is one output check that can fail.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// env is what a workload writes its results into.
type env struct {
	cfg config
	tr  *tracer  // nil when untraced
	buf *spanBuf // the main goroutine's spans; nil when untraced

	metrics   map[string]float64
	checks    []check
	attempted int64
	failed    int64
	sizes     map[string]any
	counts    map[string]any       // exact, seed-determined outputs (equal seeds must agree)
	series    map[string][]float64 // what a median was taken over, for reading a noisy run
}

func (e *env) set(name string, v float64) { e.metrics[name] = v }

func (e *env) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	e.checks = append(e.checks, c)
}

// setCosts reports a measured section from its slices: what a
// transaction cost, and how long the workload's unit operation took at
// the median. The per-slice values behind each median go into the result
// file's series.
func (e *env) setCosts(ss []slice, opP50MS float64) costs {
	c := medianCosts(ss)
	e.set("allocs_per_txn", c.allocsPerTxn)
	e.set("alloc_kb_per_txn", c.bytesPerTxn/1024)
	e.set("driver.txn_per_s", c.txnPerS)
	e.set("driver.cpu_us_per_txn", c.cpuUSPerTxn)
	e.set("driver.op_p50_ms", opP50MS)
	for _, s := range ss {
		e.series["slice_txn_per_s"] = append(e.series["slice_txn_per_s"], ratio(s.units, s.wall))
		e.series["slice_cpu_us_per_txn"] = append(e.series["slice_cpu_us_per_txn"], ratio(s.cpuUS, s.units))
		e.series["slice_allocs_per_txn"] = append(e.series["slice_allocs_per_txn"], ratio(s.mallocs, s.units))
		e.series["slice_alloc_kb_per_txn"] = append(e.series["slice_alloc_kb_per_txn"], ratio(s.bytes, s.units)/1024)
	}
	return c
}

// scaled is n × scale, at least lo.
func (e *env) scaled(n, lo int) int {
	return max(int(float64(n)*e.cfg.scale), lo)
}

// setupRepeats is how many times a run builds its workload's state. One
// build is too short a sample for a metric later changes are held to, so
// setup_s is the median of this many; the count is fixed so that every
// run does the same work before its measured section, whatever the
// machine's speed. A run at a smaller -scale, as the tests make, repeats
// proportionally fewer times.
const setupRepeats = 5

// setups builds a workload's state setupRepeats times, discarding all but
// the last, and reports the median build time as setup_s.
func setups[T any](e *env, build func() (T, error), discard func(T)) (T, error) {
	var times []float64
	var st T
	for i, n := 0, min(e.scaled(setupRepeats, 1), setupRepeats); i < n; i++ {
		if i > 0 {
			// Collect the discarded state before building again, so that
			// peak_rss_mb is one build's high-water mark and does not hang
			// on when the collector happened to run across the repeats.
			discard(st)
			var none T
			st = none
			runtime.GC()
		}
		before := readUsage()
		var err error
		if st, err = build(); err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, readUsage().at.Sub(before.at).Seconds())
	}
	e.series["setup_s"] = times
	e.set("setup_s", median(times))
	return st, nil
}

// workloadTable names the workloads; BENCHMARK.json and README.md say why
// each exists.
var workloadTable = map[string]func(*env) error{
	"plan-tpcc":   runPlanTPCC,
	"txn-tpcc":    runTxnTPCC,
	"txn-ycsb-r3": runTxnYCSB,
	"live-tpcc":   runLiveTPCC,
}

// resultFile is what a run writes to <out>/<workload>.<seed>[.trace].json.
type resultFile struct {
	Workload  string               `json:"workload"`
	Traced    bool                 `json:"traced"`
	Meta      runMeta              `json:"meta"`
	Sizes     map[string]any       `json:"sizes"`
	Counts    map[string]any       `json:"counts"`
	Series    map[string][]float64 `json:"series"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Checks    []check              `json:"checks"`
	Metrics   map[string]metric    `json:"metrics"`
	// Other holds what the run measured beyond the set its mode reports:
	// an untraced run's throughput, CPU and latency, which the comparator
	// shows without holding anything to them.
	Other map[string]metric `json:"other"`
}

// runMeta says where a result came from.
type runMeta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
}

func newMeta(cfg config) runMeta {
	commit := os.Getenv("BENCH_COMMIT") // suite.sh sets it; a bare checkout has no git
	if commit == "" {
		commit = "unknown"
	}
	return runMeta{
		Commit: commit, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Seed: cfg.seed, Scale: cfg.scale, Seconds: cfg.seconds, Clients: numClients,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func (cfg config) resultPath(traced bool) string {
	name := fmt.Sprintf("%s.%d.json", cfg.workload, cfg.seed)
	if traced {
		name = fmt.Sprintf("%s.%d.trace.json", cfg.workload, cfg.seed)
	}
	return filepath.Join(cfg.out, name)
}

// spansPath is where a traced run writes its spans; the seed is in the
// name so that a suite over several seeds keeps each one's.
func (cfg config) spansPath() string {
	return filepath.Join(cfg.out, fmt.Sprintf("%s.%d.spans.json", cfg.workload, cfg.seed))
}

// runWorkload executes one workload and assembles its result. The
// metrics kept are the end-to-end set untraced and the per-layer set
// traced, each complete.
func runWorkload(cfg config) (*resultFile, error) {
	runFn, ok := workloadTable[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(obs.Names(workloadTable), ", "))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, metrics: map[string]float64{}, sizes: map[string]any{}, counts: map[string]any{}, series: map[string][]float64{}}
	if cfg.trace {
		e.tr = newTracer()
		e.buf = e.tr.buf()
	}
	if err := runFn(e); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	e.set("peak_rss_mb", peakRSSMB())

	meta := newMeta(cfg)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		if prev, err := readResult(cfg.resultPath(false)); err == nil {
			// The same seed's untraced run, when the suite ran it first.
			base := prev.Other["driver.txn_per_s"].Value
			e.set("driver.trace_overhead_frac", ratio(base-e.metrics["driver.txn_per_s"], base))
		}
		if err := e.tr.write(cfg.spansPath(), cfg.workload, meta); err != nil {
			return nil, err
		}
	}
	res := &resultFile{
		Workload: cfg.workload, Traced: cfg.trace, Meta: meta, Sizes: e.sizes, Counts: e.counts, Series: e.series,
		Correct: true, Attempted: e.attempted, Failed: e.failed, Checks: e.checks,
		Metrics: map[string]metric{}, Other: map[string]metric{},
	}
	for _, c := range e.checks {
		res.Correct = res.Correct && c.OK
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{e.metrics[d.Name], d.Unit}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if _, reported := res.Metrics[d.Name]; reported {
			continue
		}
		if v, ok := e.metrics[d.Name]; ok {
			res.Other[d.Name] = metric{v, d.Unit}
		}
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(cfg.resultPath(cfg.trace), data, 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// report prints every metric by name with its unit, the checks, and as
// the last line the one JSON object the benchmark contract asks for.
func report(w io.Writer, res *resultFile) error {
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", res.Workload, res.Meta.Seed, res.Traced)
	for _, n := range obs.Names(res.Metrics) {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, n := range obs.Names(res.Other) {
		fmt.Fprintf(w, "  (%s)%*s %16.6g %s\n", n, max(34-len(n), 0), "", res.Other[n].Value, res.Other[n].Unit)
	}
	for _, c := range res.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "  check %-30s %s\n", c.Name, verdict)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var compare bool
	var bounds string
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: plan-tpcc, txn-tpcc, txn-ycsb-r3 or live-tpcc")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured section")
	fs.IntVar(&trace, "trace", 0, "1: traced run (per-layer metrics and a span file); 0: end-to-end metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplies workload sizes; the benchmark is 1")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for result and span files")
	fs.BoolVar(&compare, "compare", false, "compare two result directories given as arguments, against the bounds in BENCHMARK.json")
	fs.StringVar(&bounds, "bounds", "BENCHMARK.json", "benchmark definition -compare reads bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare <dir A> <dir B>")
			return 2
		}
		regressed, err := compareDirs(stdout, bounds, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(stderr, "bench: -seconds and -scale must be positive, -trace 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

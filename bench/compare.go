package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// benchDef is the part of BENCHMARK.json the comparator reads.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []boundDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// readRuns loads a directory's untraced results, grouped by workload.
func readRuns(dir string) (map[string][]*resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	runs := map[string][]*resultFile{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") || strings.HasSuffix(p, ".spans.json") {
			continue
		}
		r, err := readResult(p)
		if err != nil {
			return nil, err
		}
		runs[r.Workload] = append(runs[r.Workload], r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no untraced result files", dir)
	}
	return runs, nil
}

// quartiles returns the first and third quartile of vs as Python's
// statistics.quantiles(values, n=4) gives them. It needs two values.
func quartiles(vs []float64) (q1, q3 float64) {
	m := len(vs)
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median: what the benchmark contract holds each
// end-to-end metric's ten runs on ten seeds to. Fewer than two values
// have no spread.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// verdict judges one metric on one workload from runs paired by seed:
// a[i] is the parent's run and b[i] the change's on the same inputs, so
// what a seed itself causes cancels, and what is left is the change and
// the noise. worse is the median over the pairs of how much worse b reads
// than a, as a share of a; noise is the distance between the quartiles of
// those shares. Noise wider than the bound cannot resolve a difference of
// the bound's size, unless b reads better than a in every pair.
func verdict(def boundDef, a, b []float64) (v string, worse, noise float64) {
	shares := make([]float64, len(a))
	everyBetter := true
	for i := range a {
		shares[i] = ratio(b[i]-a[i], a[i])
		if def.Better == "higher" {
			shares[i] = -shares[i]
		}
		everyBetter = everyBetter && shares[i] < 0
	}
	worse = median(shares)
	if len(shares) >= 2 {
		q1, q3 := quartiles(shares)
		noise = q3 - q1
	}
	switch {
	case noise > def.Bound && !everyBetter:
		return "unresolved", worse, noise
	case worse > def.Bound:
		return "regressed", worse, noise
	}
	return "ok", worse, noise
}

// pairBySeed returns the runs of a and b that share a seed, in seed order.
func pairBySeed(a, b []*resultFile) (pa, pb []*resultFile) {
	bySeed := map[int64]*resultFile{}
	for _, r := range a {
		bySeed[r.Meta.Seed] = r
	}
	b = append([]*resultFile(nil), b...)
	sort.Slice(b, func(i, j int) bool { return b[i].Meta.Seed < b[j].Meta.Seed })
	for _, r := range b {
		if o, ok := bySeed[r.Meta.Seed]; ok {
			pa, pb = append(pa, o), append(pb, r)
		}
	}
	return pa, pb
}

// compareDirs prints, per workload and end-to-end metric, how the runs
// in dirB stand against the runs of the same seeds in dirA under the
// bounds of the benchmark definition, and reports whether any metric
// regressed.
func compareDirs(w io.Writer, boundsPath, dirA, dirB string) (regressed bool, err error) {
	def, err := readBenchDef(boundsPath)
	if err != nil {
		return false, err
	}
	runsA, err := readRuns(dirA)
	if err != nil {
		return false, err
	}
	runsB, err := readRuns(dirB)
	if err != nil {
		return false, err
	}
	// spread is what the benchmark contract measures, the quartile spread
	// across seeds (the wider of the two sets'); it holds the bound from
	// below but says nothing about a change, which worse and noise do.
	fmt.Fprintf(w, "%-12s %-22s %14s %14s %8s %8s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "spread", "worse", "noise", "bound", "verdict")
	for _, wl := range def.Workloads {
		a, b := pairBySeed(runsA[wl.Name], runsB[wl.Name])
		if len(a) == 0 {
			fmt.Fprintf(w, "%-12s has no runs of a common seed in %s and %s\n", wl.Name, dirA, dirB)
			regressed = true
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			v, worse, noise := verdict(m, va, vb)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %8.3f %+8.3f %8.3f %8.3f  %s\n", wl.Name, m.Name,
				median(va), median(vb), max(quartileSpread(va), quartileSpread(vb)), worse, noise, m.Bound, v)
		}
		for _, m := range def.PerLayer {
			// Timings of the untraced runs: too unsteady on a shared box
			// to hold a change to, too useful to leave out.
			if va, vb := others(a, m.Name), others(b, m.Name); len(va) == len(a) && len(vb) == len(b) {
				_, worse, noise := verdict(m, va, vb)
				fmt.Fprintf(w, "%-12s %-22s %14.6g %14.6g %8.3f %+8.3f %8.3f %8s  info\n", wl.Name, m.Name,
					median(va), median(vb), max(quartileSpread(va), quartileSpread(vb)), worse, noise, "-")
			}
		}
		same := 0
		for i := range a {
			if reflect.DeepEqual(a[i].Counts, b[i].Counts) {
				same++
			}
		}
		// Two builds of one commit must agree on the exact, seed-determined
		// outputs; a change to the partitioner may not.
		fmt.Fprintf(w, "%-12s %-22s %d of %d seed-matched runs identical\n", wl.Name, "counts", same, len(a))
		for _, r := range append(append([]*resultFile(nil), a...), b...) {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "%-12s seed %d: checks failed or %d operations failed\n", wl.Name, r.Meta.Seed, r.Failed)
				regressed = true
			}
		}
	}
	return regressed, nil
}

// others collects a metric the untraced runs measured but do not report
// in their contract set.
func others(runs []*resultFile, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		if m, ok := r.Other[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func values(runs []*resultFile, name string) []float64 {
	var vs []float64
	for _, r := range runs {
		vs = append(vs, r.Metrics[name].Value)
	}
	return vs
}

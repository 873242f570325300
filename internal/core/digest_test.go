package core

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/answer.golden from this run")

const goldenPath = "testdata/answer.golden"

// digestCase is one core.Run configuration of the answer digest.
type digestCase struct {
	name  string
	w     *workloads.Workload
	k     int
	hyper bool
	opts  Options
}

// digestCases is the digest's configuration matrix: TPC-C at 2 and 8
// warehouses, Epinions and RANDOM under k ∈ {2, 8} × clique/hypergraph ×
// {plain, coalesce, transaction sampling at 0.5, no replication}, plus
// YCSB-A, YCSB-E and TPC-E plain under k ∈ {2, 8} × clique/hypergraph.
// The workloads are small so that the full matrix runs in well under a
// minute; -short keeps the configurations marked by shortCase.
func digestCases() []digestCase {
	type wl struct {
		name     string
		w        *workloads.Workload
		variants bool
	}
	wls := []wl{
		{"tpcc2w", workloads.TPCC(workloads.TPCCConfig{Warehouses: 2, Customers: 30, Items: 200, InitialOrders: 10, Txns: 1600, Seed: 42}), true},
		{"tpcc8w", workloads.TPCC(workloads.TPCCConfig{Warehouses: 8, Customers: 20, Items: 200, InitialOrders: 8, Txns: 3000, Seed: 5}), true},
		{"epinions", workloads.Epinions(workloads.EpinionsConfig{Users: 300, Items: 150, Communities: 8, Txns: 2000, Seed: 7}), true},
		{"random", workloads.Random(workloads.RandomConfig{Rows: 4000, Txns: 2000, Seed: 9}), true},
		{"ycsb-a", workloads.YCSBA(workloads.YCSBConfig{Rows: 2000, Txns: 1000, Seed: 1}), false},
		{"ycsb-e", workloads.YCSBE(workloads.YCSBConfig{Rows: 2000, Txns: 1000, MaxScan: 20, Seed: 2}), false},
		{"tpce", workloads.TPCE(workloads.TPCEConfig{Customers: 150, Securities: 80, Txns: 2000, Seed: 6}), false},
	}
	variants := []struct {
		name string
		set  func(*Options)
	}{
		{"plain", func(*Options) {}},
		{"coalesce", func(o *Options) { o.Graph.Coalesce = true }},
		{"sample0.5", func(o *Options) { o.Graph.TxnSampleRate = 0.5 }},
		{"norepl", func(o *Options) { o.DisableReplication = true }},
	}
	var out []digestCase
	for _, w := range wls {
		for _, k := range []int{2, 8} {
			for _, hyper := range []bool{false, true} {
				kind := "clique"
				if hyper {
					kind = "hyper"
				}
				for i, v := range variants {
					if i > 0 && !w.variants {
						break
					}
					opts := Options{Partitions: k, Seed: 11}
					v.set(&opts)
					out = append(out, digestCase{
						name: fmt.Sprintf("%s/k%d/%s/%s", w.name, k, kind, v.name),
						w:    w.w, k: k, hyper: hyper, opts: opts,
					})
				}
			}
		}
	}
	return out
}

// shortCase keeps, under -short, every workload's plain clique and
// coalesced hypergraph configurations at k = 2.
func shortCase(name string) bool {
	return strings.Contains(name, "/k2/clique/plain") || strings.Contains(name, "/k2/hyper/coalesce")
}

// answerDigest hashes what a core.Run answer deploys and reports: the
// lookup strategy's placement of every tuple the trace touches (first-
// access order, each located on the row resolve gives it before the next
// resolve), the validation costs and pick, the explanation's rules,
// the pruned-replica count, the cut and the graph phase's part weights.
func answerDigest(tr *workload.Trace, res *Result, resolve partition.Resolver) uint64 {
	h := fnv.New64a()
	names := make([]string, 0, len(res.Costs))
	for n := range res.Costs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(h, "cost", n, res.Costs[n].Total, res.Costs[n].Distributed)
	}
	fmt.Fprintln(h, "chosen", res.ChosenName)
	tables := make([]string, 0, len(res.RuleStrings))
	for t := range res.RuleStrings {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		fmt.Fprintln(h, "rules", t, strings.Join(res.RuleStrings[t], "\n"))
	}
	fmt.Fprintln(h, "pruned", res.PrunedReplicas, "cut", res.EdgeCut, "weights", res.PartWeight)
	seen := make(map[workload.TupleID]bool)
	for _, tx := range tr.Txns {
		for _, a := range tx.Accesses {
			if seen[a.Tuple] {
				continue
			}
			seen[a.Tuple] = true
			fmt.Fprintln(h, a.Tuple.Table, a.Tuple.Key, res.Lookup.Locate(a.Tuple, resolve(a.Tuple)))
		}
	}
	return h.Sum64()
}

// TestResolvedRowLifetime checks that core.Run keeps no resolved row past
// the resolver's next call, as the partition.Resolver contract requires:
// under poisonResolver, which spoils every row once the next is
// resolved, the -short matrix must still give the golden digests. A
// phase that kept rows to read them later (explanation collecting rows
// instead of copying their cells) would train on poison and change its
// answer. CI also runs it under the race detector, where a parallel
// caller sharing one resolver's scratch races on the wrapper's state.
func TestResolvedRowLifetime(t *testing.T) {
	if *update {
		t.Skip("-update rewrites the golden; nothing to compare")
	}
	golden := readGolden(t)
	for _, c := range digestCases() {
		if !shortCase(c.name) {
			continue
		}
		res, err := Run(Input{
			Trace:      c.w.Trace,
			Resolver:   poisonResolver(c.w.Resolver()),
			KeyColumns: c.w.KeyColumns,
			DB:         c.w.DB,
			Hyper:      c.hyper,
		}, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if sum := fmt.Sprintf("%016x", answerDigest(c.w.Trace, res, poisonResolver(c.w.Resolver()))); sum != golden[c.name] {
			t.Errorf("%s: %s under poisoned rows, golden %q", c.name, sum, golden[c.name])
		}
	}
}

// poisonValue is what a row reads once it is no longer valid: an integer
// no generator produces.
var poisonValue = datum.NewInt(math.MinInt64 + 1)

// poisonRow is a resolved row that reads as poisonValue in every column
// once dead is set.
type poisonRow struct {
	row  partition.Row
	dead bool
}

// Get implements partition.Row.
func (p *poisonRow) Get(col string) datum.D {
	if p.dead {
		return poisonValue
	}
	return p.row.Get(col)
}

// poisonResolver wraps resolve so that each call first overwrites the row
// the previous call returned with poison, the strictest resolver the
// partition.Resolver contract allows.
func poisonResolver(resolve partition.Resolver) partition.Resolver {
	var prev *poisonRow
	return func(id workload.TupleID) partition.Row {
		if prev != nil {
			prev.dead = true
			prev = nil
		}
		row := resolve(id)
		if row == nil {
			return nil
		}
		prev = &poisonRow{row: row}
		return prev
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

// TestAnswerDigest is the same-answer check: it runs core.Run over a fixed
// configuration matrix and compares one 64-bit digest per configuration
// (answerDigest) with testdata/answer.golden. A change that is meant to
// leave the pipeline's answer alone must pass it unmodified; one that
// changes the answer on purpose rewrites the golden with -update and says
// which configurations changed and why. A failure names every changed
// configuration.
func TestAnswerDigest(t *testing.T) {
	if *update && testing.Short() {
		t.Fatal("-update needs the full matrix: run without -short")
	}
	var golden map[string]string
	if !*update {
		golden = readGolden(t)
	}
	var lines, changed []string
	for _, c := range digestCases() {
		if testing.Short() && !shortCase(c.name) {
			continue
		}
		res, err := Run(Input{
			Trace:      c.w.Trace,
			Resolver:   c.w.Resolver(),
			KeyColumns: c.w.KeyColumns,
			DB:         c.w.DB,
			Hyper:      c.hyper,
		}, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sum := fmt.Sprintf("%016x", answerDigest(c.w.Trace, res, c.w.Resolver()))
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
		t.Errorf("%d of %d configurations changed their answer:\n%s", len(changed), len(lines), strings.Join(changed, "\n"))
	}
}

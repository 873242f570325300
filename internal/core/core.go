// Package core implements the Schism pipeline — the paper's contribution
// (§2): (1) pre-process the trace into read/write sets, (2) build the
// tuple-level workload graph, (3) min-cut partition it, (4) explain the
// per-tuple partitioning as range predicates with a decision tree, and
// (5) validate: pick the cheapest of {lookup tables, range predicates,
// hash partitioning, full replication} by counting distributed
// transactions on a held-out test trace, preferring simpler strategies on
// ties.
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"schism/internal/graph"
	"schism/internal/lookup"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
)

// Input bundles what the pipeline needs.
type Input struct {
	// Trace is the full captured workload; the pipeline splits it in half
	// (trainFrac) into training and testing portions.
	Trace *workload.Trace
	// Resolver returns a tuple's column values (for the explanation phase
	// and attribute-hash strategies). May be nil: explanation is skipped.
	// Run calls it from one goroutine and reads each row before the next
	// call, so a resolver may reuse one row's storage for the next.
	Resolver partition.Resolver
	// KeyColumns maps each table to its primary-key column.
	KeyColumns map[string]string
	// DB, when set, lets the lookup phase cover tuples that exist but were
	// never traced: a read-mostly workload replicates them everywhere (the
	// paper's Epinions policy). Every other key the lookup tables miss,
	// untraced or new, is placed by the explanation's rules (Lookup.Tables),
	// else by its key hash.
	DB *storage.Database
	// Hyper selects the hypergraph-native representation: graph.BuildHyper
	// (one net per transaction, linear in access-set size) partitioned on
	// the connectivity metric, instead of the clique expansion + edge cut.
	// Result.EdgeCut then reports the connectivity cost.
	Hyper bool
}

// Options tune the pipeline phases.
type Options struct {
	// Partitions is k, the number of target partitions. Required, at most
	// lookup.MaxPartitions.
	Partitions int
	// Graph configures graph construction (§4.1, §5.1). Replication is ON
	// unless DisableReplication is set.
	Graph graph.Options
	// DisableReplication turns off the replicated-tuple star expansion.
	DisableReplication bool
	// Metis configures the partitioner.
	Metis metis.Options
	// TrainTuplesPerTable caps the explanation training set per table
	// (default 5000; the paper's stress test uses 250).
	TrainTuplesPerTable int
	// Seed drives sampling.
	Seed int64
}

const (
	// trainFrac is the training share of the trace (the paper separates
	// traces "into training and testing sets").
	trainFrac = 0.5
	// minAttrFrac is the minimum fraction of a table's statements that
	// must use an attribute for it to be an explanation candidate (§5.2).
	minAttrFrac = 0.1
	// readMostlyWriteFrac is the read-mostly line: below it the trace's
	// write fraction replicates tuples absent from the lookup table
	// everywhere (the paper's Epinions policy), and above it a replicated
	// tuple's own write fraction demotes it to one home.
	readMostlyWriteFrac = 0.15
	// validationTolerance: strategies within this absolute distributed-
	// transaction fraction of the best are "ties" resolved by simplicity
	// (§4.4).
	validationTolerance = 0.01
)

func (o Options) withDefaults() Options {
	if o.TrainTuplesPerTable <= 0 {
		o.TrainTuplesPerTable = 5000
	}
	return o
}

// Timings records per-phase wall-clock durations (§6.2 reports these).
type Timings struct {
	Graph     time.Duration
	Partition time.Duration
	// Lookup is the step between partitioning and explanation (the dense
	// replica sets, the part weights and write-aware replica pruning) plus
	// the lookup tables built after explanation.
	Lookup   time.Duration
	Explain  time.Duration
	Validate time.Duration
}

// Total sums the phases.
func (t Timings) Total() time.Duration {
	return t.Graph + t.Partition + t.Lookup + t.Explain + t.Validate
}

// GraphStats reports Table-1-style graph sizes.
type GraphStats struct {
	Tuples int // distinct tuples represented
	Txns   int // transactions represented (post-filtering)
	Nodes  int
	Edges  int
}

// Result is the pipeline output.
type Result struct {
	K          int
	Stats      GraphStats
	EdgeCut    int64
	PartWeight []int64

	// Tuples and Assignments give the placement the pipeline deploys:
	// Assignments[i] is the replica set of Tuples[i], the graph's dense
	// tuple ids, after write-aware replica pruning (see PrunedReplicas).
	// Tuples with equal sets share one slice (graph.DenseAssignments), as
	// in live.Repartition, so treat the sets as read-only.
	Tuples      []workload.TupleID
	Assignments [][]int
	// PrunedReplicas counts write-hot tuples demoted from replicated to
	// single-home placement (see pruneWriteReplicas).
	PrunedReplicas int
	// Lookup is the fine-grained strategy (always built): the explanation's
	// rules, and entries for the traced tuples the rules place elsewhere
	// than the graph does.
	Lookup *partition.Lookup
	// Range is the explanation-phase strategy: Lookup's rules without its
	// entries (nil when no explanation was found).
	Range *partition.Lookup
	// RuleStrings renders the learned rules per table for reporting, in
	// the style of §5.2.
	RuleStrings map[string][]string

	// Costs maps strategy name -> measured cost on the test trace.
	// Keys: "lookup-table", "range-predicates", "hashing", "replication".
	Costs map[string]partition.Cost
	// Chosen is the validation phase's pick.
	Chosen     partition.Strategy
	ChosenName string

	Timings Timings
}

// Run executes the full pipeline, always from scratch: re-running against
// a deployed placement is live.Repartitioner.Repartition(trace, locate).
func Run(in Input, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	k := opts.Partitions
	if k < 1 {
		return nil, fmt.Errorf("core: Partitions must be >= 1")
	}
	if k > lookup.MaxPartitions {
		return nil, fmt.Errorf("core: Partitions = %d exceeds lookup.MaxPartitions (%d)", k, lookup.MaxPartitions)
	}
	if in.Trace == nil || in.Trace.Len() == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}
	train, test := in.Trace.Split(trainFrac)
	if test.Len() == 0 {
		test = train
	}

	res := &Result{K: k, Costs: make(map[string]partition.Cost), RuleStrings: make(map[string][]string)}

	// Phase 1+2: read/write sets are already explicit in the trace model;
	// build the graph.
	gopts := opts.Graph
	gopts.Replication = !opts.DisableReplication
	if gopts.Seed == 0 {
		gopts.Seed = opts.Seed
	}
	t0 := time.Now()
	var g *graph.Graph
	var err error
	if in.Hyper {
		g, err = graph.BuildHyper(train, gopts)
	} else {
		g, err = graph.Build(train, gopts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: graph build failed: %w", err)
	}
	res.Timings.Graph = time.Since(t0)
	res.Stats = GraphStats{
		Tuples: g.Intern.Len(),
		Txns:   g.Compact.NumTxns(),
		Nodes:  g.NumNodes(),
		Edges:  g.NumEdges(),
	}

	// Phase 3: min-cut partitioning.
	mopts := opts.Metis
	if mopts.Seed == 0 {
		mopts.Seed = opts.Seed
	}
	t0 = time.Now()
	parts, cut, err := g.Partition(k, mopts)
	if err != nil {
		return nil, fmt.Errorf("core: partitioning failed: %w", err)
	}
	res.Timings.Partition = time.Since(t0)
	t0 = time.Now()
	res.EdgeCut = cut
	res.Tuples = g.Intern.Tuples()
	res.Assignments = g.DenseAssignments(parts)
	// PartWeight is the graph phase's balance (per-partition node weight
	// under the min-cut labels); the replica pruning below adjusts the
	// deployed replica sets but not the graph labels.
	res.PartWeight = g.PartWeights(parts, k)
	res.PrunedReplicas = pruneWriteReplicas(train, g.Intern, res.Assignments, k)
	readMostly := writeFraction(train) < readMostlyWriteFrac
	res.Timings.Lookup = time.Since(t0)

	// Phase 4: explanation. The balance check resolves every traced tuple
	// once, and its home under the rules decides the tuple's entry below.
	t0 = time.Now()
	var memo sqlparse.ColumnMemo
	var rules map[string]*partition.TableRules
	var homes [][]int
	if in.Resolver != nil {
		if rules = explain(res, train, &memo, in, opts); rules != nil {
			res.Range = &partition.Lookup{K: k, Tables: rules, KeyColumn: in.KeyColumns}
			var ok bool
			if homes, ok = balanced(res.Range, res.Tuples, in.Resolver, k); !ok {
				// §4.3 condition (ii): an explanation that funnels the load
				// onto few partitions degrades the graph solution; discard it.
				res.Range, rules, homes = nil, nil, nil
				res.RuleStrings = map[string][]string{}
			}
		}
	}
	res.Timings.Explain = time.Since(t0)

	// The fine-grained lookup strategy: the explanation places every key,
	// and the tables keep the traced tuples it places wrong. Without a
	// database, untraced tuples of a read-mostly trace are replicated
	// everywhere.
	t0 = time.Now()
	l := &partition.Lookup{K: k, Tables: rules, KeyColumn: in.KeyColumns}
	if in.DB == nil && readMostly {
		l.Default = allParts(k)
	}
	l.Router = buildRouter(res, homes, l, keyRouted(&memo, l.Tables, in.KeyColumns), g.Intern, in, readMostly)
	res.Lookup = l
	res.Timings.Lookup += time.Since(t0)

	// Phase 5: validation on the held-out trace.
	t0 = time.Now()
	candidates := []partition.Strategy{res.Lookup}
	if res.Range != nil {
		candidates = append(candidates, res.Range)
	}
	candidates = append(candidates,
		&partition.Hash{K: k, KeyColumn: in.KeyColumns},
		&partition.FullReplication{K: k},
	)
	var chosen partition.Strategy
	var bestFrac float64
	for i, c := range partition.EvaluateEach(test, candidates, in.Resolver) {
		s := candidates[i]
		res.Costs[s.Name()] = c
		if chosen == nil || c.DistributedFrac() < bestFrac {
			chosen = s
			bestFrac = c.DistributedFrac()
		}
	}
	// Tie-break: any candidate within tolerance of the best wins if it is
	// simpler (§4.4).
	for _, s := range candidates {
		c := res.Costs[s.Name()]
		if c.DistributedFrac() <= bestFrac+validationTolerance && s.Complexity() < chosen.Complexity() {
			chosen = s
		}
	}
	res.Chosen = chosen
	res.ChosenName = chosen.Name()
	res.Timings.Validate = time.Since(t0)
	return res, nil
}

// balanced checks that the explained strategy spreads the graph's tuples
// acceptably: no partition may hold more than twice its fair share
// (replicated tuples count toward every replica). It returns every
// tuple's replica set under r, homes[d] for tuples[d]. Each row is
// located as soon as it is resolved and not kept.
func balanced(r partition.Strategy, tuples []workload.TupleID, resolve partition.Resolver, k int) (homes [][]int, ok bool) {
	homes = make([][]int, len(tuples))
	load := make([]int64, k)
	var total int64
	for d, id := range tuples {
		homes[d] = r.Locate(id, resolve(id))
		for _, p := range homes[d] {
			if p >= 0 && p < k {
				load[p]++
				total++
			}
		}
	}
	if k > 1 {
		limit := 2 * total / int64(k)
		for _, l := range load {
			if l > limit {
				return homes, false
			}
		}
	}
	return homes, true
}

// pruneWriteReplicas demotes replicated write-hot tuples (more than
// readMostlyWriteFrac of their accesses are writes) to a single home,
// returning how many tuples were demoted. Replication only pays for
// itself on read-mostly tuples (§2, §4.1): every write to a replicated
// tuple must reach all replicas, so a write-hot tuple that the
// balance-pressured min-cut happened to split across partitions turns
// each of its writers into a distributed transaction. The star
// expansion prices this (centre-replica edges weigh the update count),
// but at small graph sizes balance pressure can overrule it; this pass
// restores the paper's invariant. The home kept is the replica where the
// plurality of the tuple's transactions already execute, so demotion
// never increases a transaction's node span. A demoted tuple takes its
// home's shared singleton, so equal sets still share one slice.
func pruneWriteReplicas(train *workload.Trace, in *workload.Interner, dense [][]int, k int) int {
	// Access statistics, kept for replicated tuples only (votes != nil);
	// votes[i] counts the transactions homed on dense[d][i]. Every votes
	// slice is cut from one array, sized by the first loop.
	type stat struct {
		reads, writes int
		votes         []int
	}
	stats := make([]stat, len(dense))
	nvotes := 0
	// singles[p] is the {p} single-home tuples share: the graph's own, or
	// one made for the first tuple demoted to p.
	singles := make([][]int, k)
	for _, parts := range dense {
		if len(parts) > 1 {
			nvotes += len(parts)
		} else if len(parts) == 1 && singles[parts[0]] == nil {
			singles[parts[0]] = parts
		}
	}
	if nvotes == 0 {
		return 0
	}
	votes := make([]int, nvotes)
	for d, parts := range dense {
		if len(parts) > 1 {
			stats[d].votes, votes = votes[:len(parts):len(parts)], votes[len(parts):]
		}
	}
	var hist []int
	for _, tx := range train.Txns {
		// The transaction's home vote: the partition holding the
		// plurality of its singly-assigned tuples. Tuples the graph
		// dropped (transaction sampling) take no part.
		hist = hist[:0]
		for _, a := range tx.Accesses {
			d, ok := in.Lookup(a.Tuple)
			if !ok || len(dense[d]) != 1 {
				continue
			}
			p := dense[d][0]
			for len(hist) <= p {
				hist = append(hist, 0)
			}
			hist[p]++
		}
		home, best := -1, 0
		for p, n := range hist {
			if n > best {
				home, best = p, n
			}
		}
		for _, a := range tx.Accesses {
			d, ok := in.Lookup(a.Tuple)
			if !ok || stats[d].votes == nil {
				continue
			}
			st := &stats[d]
			if a.Write {
				st.writes++
			} else {
				st.reads++
			}
			for i, p := range dense[d] {
				if p == home {
					st.votes[i]++
				}
			}
		}
	}
	pruned := 0
	for d, parts := range dense {
		st := &stats[d]
		total := st.reads + st.writes
		if total == 0 || float64(st.writes)/float64(total) <= readMostlyWriteFrac {
			continue
		}
		home, best := parts[0], -1
		for i, p := range parts {
			if v := st.votes[i]; v > best {
				home, best = p, v
			}
		}
		if singles[home] == nil {
			singles[home] = []int{home}
		}
		dense[d] = singles[home]
		pruned++
	}
	return pruned
}

// writeFraction is the fraction of transactions performing any write.
func writeFraction(tr *workload.Trace) float64 {
	if tr.Len() == 0 {
		return 0
	}
	w := 0
	for _, t := range tr.Txns {
		if !t.ReadOnly() {
			w++
		}
	}
	return float64(w) / float64(tr.Len())
}

// buildRouter builds the lookup tables of rules, a Lookup without
// entries yet, that keep the keys it places wrong. A traced tuple,
// res.Tuples[d], gets an entry only where the graph's replica set
// differs from its place under rules: homes[d] in a table with rules,
// else rules' Default or the key hash. A table in full keeps an entry
// for every traced tuple. For a read-mostly workload with a database,
// existing-but-untraced tuples are replicated everywhere.
func buildRouter(res *Result, homes [][]int, rules *partition.Lookup, full map[string]bool, intern *workload.Interner, in Input, readMostly bool) *lookup.Router {
	k := res.K
	router := lookup.NewRouter(k)
	for d, parts := range res.Assignments {
		id := res.Tuples[d]
		var placed bool
		switch {
		case full[id.Table]:
		case rules.Tables[id.Table] != nil:
			placed = slices.Equal(parts, homes[d])
		default:
			placed = slices.Equal(parts, rules.Locate(id, nil))
		}
		if !placed {
			router.Set(id.Table, id.Key, parts)
		}
	}
	if in.DB != nil && readMostly {
		all := allParts(k)
		for _, name := range in.DB.TableNames() {
			t := router.Table(name)
			in.DB.Table(name).ScanAllKeys(func(key int64) bool {
				if _, traced := intern.Lookup(workload.TupleID{Table: name, Key: key}); !traced {
					t.Set(key, all)
				}
				return true
			})
		}
	}
	router.Compress()
	return router
}

// keyRouted returns the tables with rules that some training statement,
// one of memo's shapes, names by key equality without naming every
// column the rules test by equality too. A key the tables miss routes by
// those columns (Lookup.RouteStmt), so such a statement would reach
// every rule's groups: these tables keep an entry for every traced
// tuple. An INSERT names every column it sets.
func keyRouted(memo *sqlparse.ColumnMemo, rules map[string]*partition.TableRules, keyCols map[string]string) map[string]bool {
	full := make(map[string]bool)
	memo.Shapes(func(uses []sqlparse.ColumnUse) {
		names := func(table, col string) bool {
			return slices.ContainsFunc(uses, func(u sqlparse.ColumnUse) bool {
				return u.Table == table && u.Column == col && u.Op == sqlparse.OpEq
			})
		}
		for table, tr := range rules {
			if full[table] || !names(table, keyCols[table]) {
				continue
			}
			for _, n := range tr.Nodes {
				if n.Parts == nil && !names(table, n.Column) {
					full[table] = true
				}
			}
		}
	})
	return full
}

func allParts(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}

// Report renders a Fig. 4-style summary.
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "partitions=%d graph: %d tuples, %d txns, %d nodes, %d edges, cut=%d\n",
		r.K, r.Stats.Tuples, r.Stats.Txns, r.Stats.Nodes, r.Stats.Edges, r.EdgeCut)
	names := make([]string, 0, len(r.Costs))
	for n := range r.Costs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := r.Costs[n]
		marker := "  "
		if n == r.ChosenName {
			marker = "->"
		}
		fmt.Fprintf(&sb, "%s %-18s %6.2f%% distributed (%d/%d)\n", marker, n, 100*c.DistributedFrac(), c.Distributed, c.Total)
	}
	tables := make([]string, 0, len(r.RuleStrings))
	for t := range r.RuleStrings {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		fmt.Fprintf(&sb, "rules[%s]:\n", t)
		for _, rule := range r.RuleStrings[t] {
			fmt.Fprintf(&sb, "  %s\n", rule)
		}
	}
	fmt.Fprintf(&sb, "routing state: %d bytes (rules of %d tables, lookup tables of %d)\n",
		r.Lookup.MemoryBytes(), len(r.Lookup.Tables), len(r.Lookup.Router.Names()))
	fmt.Fprintf(&sb, "time: graph=%v partition=%v lookup=%v explain=%v validate=%v\n",
		r.Timings.Graph, r.Timings.Partition, r.Timings.Lookup, r.Timings.Explain, r.Timings.Validate)
	return sb.String()
}

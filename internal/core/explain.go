package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"schism/internal/datum"
	"schism/internal/dtree"
	"schism/internal/featsel"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/workload"
)

// explain implements phase 4 (§4.3, §5.2): per table, mine frequently used
// WHERE attributes, select those correlated with the partition label,
// train a decision tree on (tuple attributes -> replica-set label), and
// keep the tree as the table's rules. Returns nil when no table could be
// explained. memo is left holding the training trace's statement shapes.
func explain(res *Result, train *workload.Trace, memo *sqlparse.ColumnMemo, in Input, opts Options) map[string]*partition.TableRules {
	counts, totalStmts := featsel.Frequencies(train, memo)
	if totalStmts == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))

	// The assigned tuples' dense ids in (table, key) order: one run per
	// table, tables and keys ascending.
	order := make([]int32, len(res.Tuples))
	for d := range order {
		order[d] = int32(d)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ta, tb := res.Tuples[a], res.Tuples[b]
		return cmp.Or(cmp.Compare(ta.Table, tb.Table), cmp.Compare(ta.Key, tb.Key))
	})

	out := make(map[string]*partition.TableRules)
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		table := res.Tuples[order[lo]].Table
		hi = lo + 1
		for hi < len(order) && res.Tuples[order[hi]].Table == table {
			hi++
		}
		if tr := explainTable(res, table, order[lo:hi], counts, in, opts, rng); tr != nil {
			out[table] = tr
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// explainTable learns predicate rules for one table, or returns nil;
// tuples are the table's dense ids in key order.
func explainTable(res *Result, table string, tuples []int32, counts map[featsel.TableColumn]int, in Input, opts Options, rng *rand.Rand) *partition.TableRules {
	// Candidate attributes: frequently used in WHERE clauses (§5.2).
	candidates := featsel.Frequent(counts, table, minAttrFrac)
	if len(candidates) == 0 {
		return nil
	}

	// Sample the training set.
	sample := tuples
	if len(sample) > opts.TrainTuplesPerTable {
		idx := rng.Perm(len(sample))[:opts.TrainTuplesPerTable]
		sort.Ints(idx)
		picked := make([]int32, len(idx))
		for i, j := range idx {
			picked[i] = sample[j]
		}
		sample = picked
	}

	// Build labelled rows: label = interned replica set (replicated tuples
	// get virtual labels for their partition set, §4.3). The rows are
	// carved from one backing array, sized so that it never grows; each
	// resolved row's cells are copied into it, since the row is only
	// valid until the next resolve.
	labelOf := make(map[string]int)
	var labelSets [][]int
	var key []byte
	cells := make([]datum.D, 0, len(sample)*len(candidates))
	rows := make([][]datum.D, 0, len(sample))
	labels := make([]int, 0, len(sample))
	for _, d := range sample {
		row := in.Resolver(res.Tuples[d])
		if row == nil {
			continue
		}
		start := len(cells)
		for _, col := range candidates {
			cells = append(cells, row.Get(col))
		}
		key = appendSetKey(key[:0], res.Assignments[d])
		l, ok := labelOf[string(key)]
		if !ok {
			l = len(labelSets)
			labelOf[string(key)] = l
			labelSets = append(labelSets, res.Assignments[d])
		}
		rows = append(rows, cells[start:len(cells):len(cells)])
		labels = append(labels, l)
	}
	if len(rows) == 0 {
		return nil
	}

	// Single label: the whole table goes to one replica set ("<empty>"
	// rule, like the paper's item table).
	if len(labelSets) == 1 {
		res.RuleStrings[table] = append(res.RuleStrings[table],
			"<empty> -> "+partsString(labelSets[0])+" (pred. error: 0.00%)")
		return &partition.TableRules{Nodes: []partition.RuleNode{{Parts: labelSets[0]}}, Default: labelSets[0]}
	}

	// Correlation-based attribute selection (drops s_i_id in TPC-C).
	keep := featsel.Select(rows, labels, len(labelSets), len(candidates), 0.05, 0.3)
	if len(keep) == 0 {
		// No attribute predicts the placement: fall back to the constant
		// majority rule, like the paper's item table ("<empty>: partition
		// 0, pred. error 24.8%" — the error is a sampling artifact, §5.2).
		// The fallback is only an explanation when the majority dominates;
		// otherwise (e.g. the Random workload, where placements are
		// uniform across k partitions) a constant rule would funnel the
		// whole table onto one node and must be rejected (§4.3 cond. ii).
		maj, majN := 0, -1
		counts := make([]int, len(labelSets))
		for _, l := range labels {
			counts[l]++
			if counts[l] > majN {
				maj, majN = l, counts[l]
			}
		}
		if float64(majN) < 0.5*float64(len(labels)) {
			return nil
		}
		res.RuleStrings[table] = append(res.RuleStrings[table],
			"<empty> -> "+partsString(labelSets[maj])+
				" (pred. error: "+pctString(1-float64(majN)/float64(len(labels)))+")")
		return &partition.TableRules{Nodes: []partition.RuleNode{{Parts: labelSets[maj]}}, Default: labelSets[maj]}
	}
	attrs := make([]dtree.Attr, len(keep))
	for i, a := range keep {
		kind := dtree.Numeric
		if rows[0][a].K == datum.String {
			kind = dtree.Categorical
		}
		attrs[i] = dtree.Attr{Name: candidates[a], Kind: kind}
	}
	ds := &dtree.Dataset{
		Attrs:     attrs,
		Rows:      make([][]datum.D, 0, len(rows)),
		Labels:    make([]int, 0, len(rows)),
		NumLabels: len(labelSets),
	}
	kept := make([]datum.D, 0, len(rows)*len(keep))
	for i, r := range rows {
		start := len(kept)
		for _, a := range keep {
			kept = append(kept, r[a])
		}
		ds.Add(kept[start:len(kept):len(kept)], labels[i])
	}

	// A covered table has every stored row in the training set (TPC-C's
	// warehouse: 50 rows, one per w_id), so there is nothing unseen to
	// over-fit to: its tree may give one row a leaf of its own, and the
	// cross-validation guard is skipped.
	covered := false
	if in.DB != nil {
		if st := in.DB.Table(table); st != nil {
			covered = st.Len() == ds.Len()
		}
	}
	var topts dtree.Options
	if covered {
		topts.MinLeaf = 1
	}
	tree := dtree.Train(ds, topts)
	// Guard against useless explanations (§4.3 condition ii): the tree
	// must beat always-predict-majority on the training set.
	maj := majorityCount(labels, len(labelSets))
	if errs := tree.Errors(ds); errs > (ds.Len()-maj)/2 {
		return nil
	}
	// Cross-validate to catch over-fitting (§4.3 condition iii).
	if !covered && ds.Len() >= 50 {
		if cv := dtree.KFoldError(ds, 5, dtree.Options{}); cv > 0.5 {
			return nil
		}
	}

	tr := &partition.TableRules{}
	dtree.Fold(tree, func(label int) int32 {
		return tr.Add(partition.RuleNode{Parts: labelSets[label]})
	}, func(attr int, kind dtree.AttrKind, threshold datum.D, left, right int32) int32 {
		op := dtree.CondLe
		if kind == dtree.Categorical {
			op = dtree.CondEq
		}
		return tr.Add(partition.RuleNode{Column: attrs[attr].Name, Op: op, Value: threshold, Left: left, Right: right})
	})
	majority := 0
	majorityN := -1
	for _, rule := range tree.Rules() {
		res.RuleStrings[table] = append(res.RuleStrings[table],
			ruleString(tree, rule, labelSets[rule.Label]))
		if rule.Support > majorityN {
			majorityN = rule.Support
			majority = rule.Label
		}
	}
	tr.Default = labelSets[majority]
	return tr
}

func ruleString(tree *dtree.Tree, r dtree.Rule, parts []int) string {
	return tree.RuleString(r) + " -> " + partsString(parts) +
		" (pred. error: " + pctString(r.PredictionError()) + ")"
}

func partsString(parts []int) string {
	s := "{"
	for i, p := range parts {
		if i > 0 {
			s += ","
		}
		s += strconv.Itoa(p)
	}
	return s + "}"
}

func pctString(f float64) string {
	return strconv.FormatFloat(100*f, 'f', 2, 64) + "%"
}

// appendSetKey appends a replica set's label key to b.
func appendSetKey(b []byte, parts []int) []byte {
	for _, p := range parts {
		b = append(b, byte(p))
	}
	return b
}

func majorityCount(labels []int, numLabels int) int {
	counts := make([]int, numLabels)
	for _, l := range labels {
		counts[l]++
	}
	best := 0
	for _, c := range counts {
		if c > best {
			best = c
		}
	}
	return best
}

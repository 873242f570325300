package core

import (
	"math/rand"
	"sort"
	"strconv"

	"schism/internal/datum"
	"schism/internal/dtree"
	"schism/internal/featsel"
	"schism/internal/partition"
	"schism/internal/workload"
)

// explain implements phase 4 (§4.3, §5.2): per table, mine frequently used
// WHERE attributes, select those correlated with the partition label,
// train a decision tree on (tuple attributes -> replica-set label), and
// convert its rules into a range-predicate strategy. Returns nil when no
// table could be explained.
func explain(res *Result, train *workload.Trace, in Input, opts Options) *partition.Range {
	counts, totalStmts := featsel.Frequencies(train)
	if totalStmts == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))

	// Group assigned tuples by table, deterministically ordered.
	byTable := make(map[string][]workload.TupleID)
	for id := range res.Assignments {
		byTable[id.Table] = append(byTable[id.Table], id)
	}
	tables := make([]string, 0, len(byTable))
	for t := range byTable {
		tables = append(tables, t)
		sort.Slice(byTable[t], func(i, j int) bool { return byTable[t][i].Key < byTable[t][j].Key })
	}
	sort.Strings(tables)

	out := &partition.Range{K: res.K, Tables: make(map[string]*partition.TableRules)}
	explained := 0
	for _, table := range tables {
		tr := explainTable(res, table, byTable[table], counts, in, opts, rng)
		if tr == nil {
			continue
		}
		out.Tables[table] = tr
		explained++
	}
	if explained == 0 {
		return nil
	}
	return out
}

// explainTable learns predicate rules for one table, or returns nil.
func explainTable(res *Result, table string, tuples []workload.TupleID, counts map[featsel.TableColumn]int, in Input, opts Options, rng *rand.Rand) *partition.TableRules {
	// Candidate attributes: frequently used in WHERE clauses (§5.2).
	candidates := featsel.Frequent(counts, table, opts.MinAttrFrac)
	if len(candidates) == 0 {
		return nil
	}

	// Sample the training set.
	sample := tuples
	if len(sample) > opts.TrainTuplesPerTable {
		idx := rng.Perm(len(sample))[:opts.TrainTuplesPerTable]
		sort.Ints(idx)
		picked := make([]workload.TupleID, len(idx))
		for i, j := range idx {
			picked[i] = sample[j]
		}
		sample = picked
	}

	// Build labelled rows: label = interned replica set (replicated tuples
	// get virtual labels for their partition set, §4.3).
	labelOf := make(map[string]int)
	var labelSets [][]int
	var rows [][]datum.D
	var labels []int
	for _, id := range sample {
		row := in.Resolver(id)
		if row == nil {
			continue
		}
		vals := make([]datum.D, len(candidates))
		for i, col := range candidates {
			vals[i] = row.Get(col)
		}
		key := setKey(res.Assignments[id])
		l, ok := labelOf[key]
		if !ok {
			l = len(labelSets)
			labelOf[key] = l
			labelSets = append(labelSets, res.Assignments[id])
		}
		rows = append(rows, vals)
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
		return &partition.TableRules{
			Table:   table,
			Rules:   []partition.RangeRule{{Parts: labelSets[0]}},
			Default: labelSets[0],
		}
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
		return &partition.TableRules{
			Table:   table,
			Rules:   []partition.RangeRule{{Parts: labelSets[maj]}},
			Default: labelSets[maj],
		}
	}
	attrs := make([]dtree.Attr, len(keep))
	for i, a := range keep {
		kind := dtree.Numeric
		if rows[0][a].K == datum.String {
			kind = dtree.Categorical
		}
		attrs[i] = dtree.Attr{Name: candidates[a], Kind: kind}
	}
	ds := &dtree.Dataset{Attrs: attrs, NumLabels: len(labelSets)}
	for i, r := range rows {
		vals := make([]datum.D, len(keep))
		for j, a := range keep {
			vals[j] = r[a]
		}
		ds.Add(vals, labels[i])
	}

	tree := dtree.Train(ds, dtree.Options{})
	// Guard against useless explanations (§4.3 condition ii): the tree
	// must beat always-predict-majority on the training set.
	maj := majorityCount(labels, len(labelSets))
	if errs := tree.Errors(ds); errs > (ds.Len()-maj)/2 {
		return nil
	}
	// Cross-validate to catch over-fitting (§4.3 condition iii).
	if ds.Len() >= 50 {
		if cv := dtree.KFoldError(ds, 5, dtree.Options{}); cv > 0.5 {
			return nil
		}
	}

	tr := &partition.TableRules{Table: table}
	majority := 0
	majorityN := -1
	for _, rule := range tree.Rules() {
		conds := make([]partition.RangeCond, len(rule.Conds))
		for i, c := range rule.Conds {
			conds[i] = partition.RangeCond{
				Column: attrs[c.Attr].Name,
				Op:     c.Op,
				Value:  c.Value,
			}
		}
		tr.Rules = append(tr.Rules, partition.RangeRule{Conds: conds, Parts: labelSets[rule.Label]})
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

func setKey(parts []int) string {
	b := make([]byte, len(parts))
	for i, p := range parts {
		b[i] = byte(p)
	}
	return string(b)
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

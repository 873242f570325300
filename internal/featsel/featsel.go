// Package featsel implements the attribute-selection stage of Schism's
// explanation phase (§5.2): mining the "frequent attribute set" from the
// WHERE clauses of the workload trace, and correlation-based selection of
// the candidate attributes that actually predict the partition label
// (replacing Weka's CFS). For TPC-C's stock table this keeps s_w_id and
// discards s_i_id, exactly as in the paper.
package featsel

import (
	"math"
	"sort"

	"schism/internal/datum"
	"schism/internal/sqlparse"
	"schism/internal/workload"
)

// TableColumn names a column of a table.
type TableColumn struct {
	Table  string
	Column string
}

// Frequencies counts, for every column, the number of statements whose
// WHERE clause (or inserted column list) references it. Statements that
// fail to parse are skipped: traces may contain vendor-specific syntax.
// A trace repeats a few statement shapes, and each is parsed once, into
// memo, whose shapes the caller may read afterwards.
func Frequencies(tr *workload.Trace, memo *sqlparse.ColumnMemo) (counts map[TableColumn]int, totalStmts int) {
	counts = make(map[TableColumn]int)
	for _, t := range tr.Txns {
		for _, src := range t.SQL {
			uses, ok := memo.WhereColumns(src)
			if !ok {
				continue
			}
			totalStmts++
		next:
			for i, use := range uses {
				for _, prev := range uses[:i] {
					if prev.Table == use.Table && prev.Column == use.Column {
						continue next // counted once per statement
					}
				}
				counts[TableColumn{Table: use.Table, Column: use.Column}]++
			}
		}
	}
	return counts, totalStmts
}

// Frequent returns the columns of the given table used in at least minFrac
// of the table's statements, ordered most-frequent first. The frequency
// baseline is the number of statements touching that table.
func Frequent(counts map[TableColumn]int, table string, minFrac float64) []string {
	var tableTotal int
	for tc, n := range counts {
		if tc.Table == table && n > tableTotal {
			tableTotal = n
		}
	}
	if tableTotal == 0 {
		return nil
	}
	type ranked struct {
		col string
		n   int
	}
	var out []ranked
	for tc, n := range counts {
		if tc.Table != table {
			continue
		}
		if float64(n) >= minFrac*float64(tableTotal) {
			out = append(out, ranked{tc.Column, n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].n != out[j].n {
			return out[i].n > out[j].n
		}
		return out[i].col < out[j].col
	})
	cols := make([]string, len(out))
	for i, r := range out {
		cols[i] = r.col
	}
	return cols
}

// SymmetricUncertainty measures the correlation between an attribute and
// the class label: SU(X;Y) = 2·I(X;Y)/(H(X)+H(Y)) in [0,1]. Numeric
// attributes are discretised into equal-frequency bins first.
func SymmetricUncertainty(values []datum.D, labels []int, numLabels int) float64 {
	n := len(values)
	if n == 0 || n != len(labels) {
		return 0
	}
	x := discretise(values, 10)
	numX := 0
	for _, v := range x {
		if v+1 > numX {
			numX = v + 1
		}
	}
	// Joint and marginal counts.
	joint := make([]int, numX*numLabels)
	mx := make([]int, numX)
	my := make([]int, numLabels)
	for i := range x {
		joint[x[i]*numLabels+labels[i]]++
		mx[x[i]]++
		my[labels[i]]++
	}
	hx := entropyCounts(mx, n)
	hy := entropyCounts(my, n)
	if hx == 0 || hy == 0 {
		return 0
	}
	hxy := entropyCounts(joint, n)
	mi := hx + hy - hxy
	if mi < 0 {
		mi = 0
	}
	return 2 * mi / (hx + hy)
}

// discretise maps each value to a small integer code: distinct values get
// their own code when few; otherwise numeric values fall into
// equal-frequency bins.
func discretise(values []datum.D, bins int) []int {
	distinct := make(map[datum.D]int)
	for _, v := range values {
		if _, ok := distinct[v]; !ok {
			distinct[v] = len(distinct)
			if len(distinct) > 4*bins {
				break
			}
		}
	}
	if len(distinct) <= 4*bins {
		out := make([]int, len(values))
		for i, v := range values {
			out[i] = distinct[v]
		}
		return out
	}
	// Equal-frequency binning by sorted rank.
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return datum.Compare(values[idx[a]], values[idx[b]]) < 0
	})
	out := make([]int, len(values))
	per := (len(values) + bins - 1) / bins
	for rank, i := range idx {
		out[i] = rank / per
	}
	return out
}

func entropyCounts(counts []int, n int) float64 {
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// Select ranks candidate attributes by symmetric uncertainty with the
// label and keeps those with SU >= minSU and SU >= relThreshold times the
// best attribute's SU. Rows is column-major: rows[i][a] is attribute a of
// instance i. Returns kept attribute indices, best-first.
func Select(rows [][]datum.D, labels []int, numLabels, numAttrs int, minSU, relThreshold float64) []int {
	type scored struct {
		attr int
		su   float64
	}
	var scores []scored
	col := make([]datum.D, len(rows))
	for a := 0; a < numAttrs; a++ {
		for i := range rows {
			col[i] = rows[i][a]
		}
		scores = append(scores, scored{a, SymmetricUncertainty(col, labels, numLabels)})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].su != scores[j].su {
			return scores[i].su > scores[j].su
		}
		return scores[i].attr < scores[j].attr
	})
	if len(scores) == 0 || scores[0].su < minSU {
		return nil
	}
	best := scores[0].su
	var keep []int
	for _, s := range scores {
		if s.su >= minSU && s.su >= relThreshold*best {
			keep = append(keep, s.attr)
		}
	}
	return keep
}

package dtree

import (
	"strings"

	"schism/internal/datum"
)

// CondOp enumerates rule predicate operators.
type CondOp int

// Rule predicate operators.
const (
	CondLe CondOp = iota // attr <= value
	CondGt               // attr >  value
	CondEq               // attr == value
	CondNe               // attr != value
)

func (op CondOp) String() string {
	switch op {
	case CondLe:
		return "<="
	case CondGt:
		return ">"
	case CondEq:
		return "="
	case CondNe:
		return "!="
	}
	return "?"
}

// Cond is one predicate along a root-to-leaf path.
type Cond struct {
	Attr  int
	Op    CondOp
	Value datum.D
}

// Rule is the conjunction of conditions leading to a leaf, plus the leaf's
// label and training statistics (used to report prediction error as the
// paper does in §5.2).
type Rule struct {
	Conds []Cond
	Label int
	// Support is the number of training instances reaching the leaf;
	// Errors is how many of them the leaf misclassifies.
	Support int
	Errors  int
}

// PredictionError is Errors/Support (0 for empty leaves).
func (r Rule) PredictionError() float64 {
	if r.Support == 0 {
		return 0
	}
	return float64(r.Errors) / float64(r.Support)
}

// Rules flattens the tree into its root-to-leaf rules. Conditions along
// each path are simplified: redundant bounds on the same attribute are
// collapsed to the tightest ones.
func (t *Tree) Rules() []Rule {
	var out []Rule
	var walk func(n *node, conds []Cond)
	walk = func(n *node, conds []Cond) {
		if n.leaf {
			supp := sum(n.dist)
			out = append(out, Rule{
				Conds:   simplify(conds),
				Label:   n.label,
				Support: supp,
				Errors:  supp - n.dist[n.label],
			})
			return
		}
		if n.kind == Categorical {
			walk(n.left, append(conds, Cond{Attr: n.attr, Op: CondEq, Value: n.threshold}))
			walk(n.right, append(conds[:len(conds):len(conds)], Cond{Attr: n.attr, Op: CondNe, Value: n.threshold}))
		} else {
			walk(n.left, append(conds, Cond{Attr: n.attr, Op: CondLe, Value: n.threshold}))
			walk(n.right, append(conds[:len(conds):len(conds)], Cond{Attr: n.attr, Op: CondGt, Value: n.threshold}))
		}
	}
	walk(t.root, nil)
	return out
}

// simplify keeps, per attribute, only the tightest upper (<=) and lower (>)
// bounds; equality conditions pass through.
func simplify(conds []Cond) []Cond {
	type bounds struct {
		le, gt   *datum.D
		eqNe     []Cond
		firstIdx int
	}
	byAttr := map[int]*bounds{}
	order := []int{}
	for i, c := range conds {
		b := byAttr[c.Attr]
		if b == nil {
			b = &bounds{firstIdx: i}
			byAttr[c.Attr] = b
			order = append(order, c.Attr)
		}
		switch c.Op {
		case CondLe:
			v := c.Value
			if b.le == nil || datum.Compare(v, *b.le) < 0 {
				b.le = &v
			}
		case CondGt:
			v := c.Value
			if b.gt == nil || datum.Compare(v, *b.gt) > 0 {
				b.gt = &v
			}
		default:
			b.eqNe = append(b.eqNe, c)
		}
	}
	var out []Cond
	for _, a := range order {
		b := byAttr[a]
		if b.gt != nil {
			out = append(out, Cond{Attr: a, Op: CondGt, Value: *b.gt})
		}
		if b.le != nil {
			out = append(out, Cond{Attr: a, Op: CondLe, Value: *b.le})
		}
		out = append(out, b.eqNe...)
	}
	return out
}

// RuleString renders a rule using the tree's attribute names, in the style
// of the paper's §5.2 examples.
func (t *Tree) RuleString(r Rule) string {
	if len(r.Conds) == 0 {
		return "<empty>"
	}
	parts := make([]string, len(r.Conds))
	for i, c := range r.Conds {
		parts[i] = t.attrs[c.Attr].Name + " " + c.Op.String() + " " + c.Value.String()
	}
	return strings.Join(parts, " AND ")
}

// KFoldError estimates generalisation error by k-fold cross-validation,
// returning the fraction of held-out instances misclassified. Fold f
// holds out every instance i with i % k == f, so each fold samples the
// whole dataset: rows sorted on an attribute (explanation's are sorted
// by key) still show the tree every range of it, and the estimate stays
// deterministic.
func KFoldError(ds *Dataset, k int, opts Options) float64 {
	n := ds.Len()
	if n == 0 || k < 2 {
		return 0
	}
	if k > n {
		k = n
	}
	wrong := 0
	for fold := 0; fold < k; fold++ {
		train := &Dataset{Attrs: ds.Attrs, NumLabels: ds.NumLabels}
		for i := 0; i < n; i++ {
			if i%k != fold {
				train.Add(ds.Rows[i], ds.Labels[i])
			}
		}
		t := Train(train, opts)
		for i := fold; i < n; i += k {
			if t.Classify(ds.Rows[i]) != ds.Labels[i] {
				wrong++
			}
		}
	}
	return float64(wrong) / float64(n)
}

// Package dtree implements a C4.5-class decision-tree classifier (Quinlan
// [17] in the paper): binary splits chosen by gain ratio, pessimistic
// (confidence-based) pruning, k-fold cross-validation, and extraction of
// the learned tree as predicate rules. It replaces Weka's J48 in Schism's
// explanation phase (§4.3, §5.2).
//
// Training is columnar (SLIQ/SPRINT-style): per-attribute index columns
// are sorted once up front and stably repartitioned as the tree grows, so
// no node ever re-sorts, and entropy sweeps run over dense columns with
// reusable class-histogram scratch. Large nodes are evaluated and built in
// parallel; the produced tree is byte-identical regardless of worker
// count. The original recursive row-at-a-time trainer is kept in
// naive_ref_test.go as the differential-testing reference.
package dtree

import (
	"fmt"
	"math"
	"strings"

	"schism/internal/datum"
)

// AttrKind distinguishes numeric attributes (split by threshold) from
// categorical ones (split by equality).
type AttrKind int

const (
	// Numeric attributes split as (value <= t) / (value > t).
	Numeric AttrKind = iota
	// Categorical attributes split as (value == v) / (value != v).
	Categorical
)

// Attr describes one attribute of the training data.
type Attr struct {
	Name string
	Kind AttrKind
}

// Dataset is a labelled training set. Rows[i][j] is the value of attribute
// j in instance i; Labels[i] is in [0, NumLabels).
type Dataset struct {
	Attrs     []Attr
	Rows      [][]datum.D
	Labels    []int
	NumLabels int
}

// Add appends an instance.
func (d *Dataset) Add(row []datum.D, label int) {
	if len(row) != len(d.Attrs) {
		panic(fmt.Sprintf("dtree: row has %d values, dataset has %d attrs", len(row), len(d.Attrs)))
	}
	if label >= d.NumLabels {
		d.NumLabels = label + 1
	}
	d.Rows = append(d.Rows, row)
	d.Labels = append(d.Labels, label)
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Rows) }

// Options control training.
type Options struct {
	// MinLeaf is the minimum number of instances in each branch of a split
	// (J48's -M); default 2.
	MinLeaf int
	// Confidence is the pruning confidence factor (J48's -C); lower prunes
	// more aggressively. Default 0.25. Set to 1 to disable pruning.
	Confidence float64
	// Workers bounds training parallelism; 0 means GOMAXPROCS. The learned
	// tree is identical for every worker count.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.MinLeaf <= 0 {
		o.MinLeaf = 2
	}
	if o.Confidence <= 0 {
		o.Confidence = 0.25
	}
	return o
}

// Tree is a trained classifier.
type Tree struct {
	root      *node
	attrs     []Attr
	numLabels int
}

type node struct {
	leaf  bool
	label int
	dist  []int // training class distribution reaching this node

	attr      int
	threshold datum.D // numeric split point or categorical value
	kind      AttrKind
	left      *node // numeric: <= threshold; categorical: == value
	right     *node
}

// Train fits a decision tree to the dataset.
func Train(ds *Dataset, opts Options) *Tree {
	opts = opts.withDefaults()
	// Tiny training sets (e.g. a 2-row warehouse table) still need splits;
	// relax the leaf minimum rather than refuse to learn anything.
	if ds.Len() < 10*opts.MinLeaf {
		opts.MinLeaf = 1
	}
	if ds.NumLabels == 0 {
		ds.NumLabels = 1
	}
	t := &Tree{attrs: ds.Attrs, numLabels: ds.NumLabels}
	t.root = newTrainer(ds, opts).train()
	if opts.Confidence < 1 {
		prune(t.root, opts.Confidence)
	}
	return t
}

// Classify returns the predicted label for a row.
func (t *Tree) Classify(row []datum.D) int {
	n := t.root
	for !n.leaf {
		if goesLeft(row[n.attr], n.kind, n.threshold) {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

func goesLeft(v datum.D, kind AttrKind, threshold datum.D) bool {
	if kind == Categorical {
		return datum.Equal(v, threshold)
	}
	return datum.Compare(v, threshold) <= 0
}

// NumLeaves counts leaves, a proxy for model complexity.
func (t *Tree) NumLeaves() int { return countLeaves(t.root) }

func countLeaves(n *node) int {
	if n.leaf {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}

// Depth returns the tree height (a single leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Errors returns the number of misclassified training/test instances.
func (t *Tree) Errors(ds *Dataset) int {
	wrong := 0
	for i, row := range ds.Rows {
		if t.Classify(row) != ds.Labels[i] {
			wrong++
		}
	}
	return wrong
}

func pure(dist []int) bool {
	nonzero := 0
	for _, c := range dist {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func argmax(dist []int) int {
	best, bestC := 0, -1
	for l, c := range dist {
		if c > bestC {
			best, bestC = l, c
		}
	}
	return best
}

func entropy(dist []int, total int) float64 {
	if total == 0 {
		return 0
	}
	h := 0.0
	for _, c := range dist {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(total)
		h -= p * math.Log2(p)
	}
	return h
}

type split struct {
	attr      int
	threshold datum.D
	gainRatio float64
}

// midpoint picks a split threshold between two adjacent distinct values.
// For ints it uses the lower value (<= v semantics keep predicates on the
// actual domain, as in the paper's "s_w_id <= 1" rule).
func midpoint(a, b datum.D) datum.D {
	if a.K == datum.Int && b.K == datum.Int {
		return a
	}
	fa, okA := a.AsFloat()
	fb, okB := b.AsFloat()
	if okA && okB {
		return datum.NewFloat((fa + fb) / 2)
	}
	return a
}

func splitInfo(nl, nr int) float64 {
	return entropy([]int{nl, nr}, nl+nr)
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// String renders the tree in J48-like indented form.
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(n *node, prefix string)
	walk = func(n *node, prefix string) {
		if n.leaf {
			fmt.Fprintf(&sb, "%s-> label %d %v\n", prefix, n.label, n.dist)
			return
		}
		name := t.attrs[n.attr].Name
		if n.kind == Categorical {
			fmt.Fprintf(&sb, "%s%s = %s:\n", prefix, name, n.threshold)
			walk(n.left, prefix+"  ")
			fmt.Fprintf(&sb, "%s%s != %s:\n", prefix, name, n.threshold)
			walk(n.right, prefix+"  ")
		} else {
			fmt.Fprintf(&sb, "%s%s <= %s:\n", prefix, name, n.threshold)
			walk(n.left, prefix+"  ")
			fmt.Fprintf(&sb, "%s%s > %s:\n", prefix, name, n.threshold)
			walk(n.right, prefix+"  ")
		}
	}
	walk(t.root, "")
	return sb.String()
}

package dtree

import (
	"math/rand"
	"testing"

	"schism/internal/datum"
)

func numericDS(attrs ...string) *Dataset {
	as := make([]Attr, len(attrs))
	for i, a := range attrs {
		as[i] = Attr{Name: a, Kind: Numeric}
	}
	return &Dataset{Attrs: as}
}

// warehouseDS mimics the paper's TPC-C stock-table training set: s_w_id
// determines the partition, s_i_id is noise.
func warehouseDS(n int, rng *rand.Rand) *Dataset {
	ds := numericDS("s_i_id", "s_w_id")
	for i := 0; i < n; i++ {
		w := int64(1 + rng.Intn(2)) // warehouses 1 and 2
		item := int64(rng.Intn(100000))
		label := 0
		if w > 1 {
			label = 1
		}
		ds.Add([]datum.D{datum.NewInt(item), datum.NewInt(w)}, label)
	}
	return ds
}

func TestTrainWarehouseRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ds := warehouseDS(500, rng)
	tree := Train(ds, Options{})
	if errs := tree.Errors(ds); errs != 0 {
		t.Errorf("training errors = %d, want 0 on separable data", errs)
	}
	// The tree should be a single split on s_w_id, reproducing the paper's
	// "s_w_id <= 1: partition 1; s_w_id > 1: partition 2" rule shape.
	if tree.NumLeaves() != 2 {
		t.Errorf("leaves = %d, want 2\n%s", tree.NumLeaves(), tree)
	}
	rules := tree.Rules()
	for _, r := range rules {
		if len(r.Conds) != 1 {
			t.Fatalf("rule conds = %v, want single s_w_id predicate", r.Conds)
		}
		if ds.Attrs[r.Conds[0].Attr].Name != "s_w_id" {
			t.Errorf("split on %s, want s_w_id", ds.Attrs[r.Conds[0].Attr].Name)
		}
		if r.Conds[0].Value.I != 1 {
			t.Errorf("threshold = %v, want 1 (int midpoint keeps lower bound)", r.Conds[0].Value)
		}
	}
}

func TestClassifyUnseen(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ds := warehouseDS(500, rng)
	tree := Train(ds, Options{})
	if got := tree.Classify([]datum.D{datum.NewInt(55), datum.NewInt(1)}); got != 0 {
		t.Errorf("w=1 -> %d, want 0", got)
	}
	if got := tree.Classify([]datum.D{datum.NewInt(55), datum.NewInt(2)}); got != 1 {
		t.Errorf("w=2 -> %d, want 1", got)
	}
}

func TestPureLeaf(t *testing.T) {
	ds := numericDS("x")
	for i := 0; i < 10; i++ {
		ds.Add([]datum.D{datum.NewInt(int64(i))}, 3)
	}
	ds.NumLabels = 4
	tree := Train(ds, Options{})
	if tree.NumLeaves() != 1 || tree.Depth() != 0 {
		t.Errorf("pure data should give single leaf; leaves=%d", tree.NumLeaves())
	}
	if tree.Classify([]datum.D{datum.NewInt(99)}) != 3 {
		t.Error("classify on pure tree")
	}
}

func TestCategoricalSplit(t *testing.T) {
	ds := &Dataset{Attrs: []Attr{{Name: "color", Kind: Categorical}}}
	for i := 0; i < 30; i++ {
		c := "red"
		label := 0
		if i%3 == 0 {
			c = "blue"
			label = 1
		}
		ds.Add([]datum.D{datum.NewString(c)}, label)
	}
	tree := Train(ds, Options{})
	if errs := tree.Errors(ds); errs != 0 {
		t.Errorf("categorical errors = %d, want 0", errs)
	}
	rules := tree.Rules()
	seenEq := false
	for _, r := range rules {
		for _, c := range r.Conds {
			if c.Op == CondEq || c.Op == CondNe {
				seenEq = true
			}
		}
	}
	if !seenEq {
		t.Error("expected equality conditions in categorical rules")
	}
}

func TestNoiseYieldsTrivialTree(t *testing.T) {
	// Labels are pure noise: the MDL threshold-choice correction plus
	// pessimistic pruning must keep the tree (nearly) trivial.
	rng := rand.New(rand.NewSource(3))
	ds := numericDS("x")
	for i := 0; i < 300; i++ {
		ds.Add([]datum.D{datum.NewInt(int64(rng.Intn(1000)))}, rng.Intn(2))
	}
	pruned := Train(ds, Options{Confidence: 0.25})
	if pruned.NumLeaves() > 4 {
		t.Errorf("noise tree has %d leaves, want <= 4", pruned.NumLeaves())
	}
}

func TestPruneCollapsesUselessSplit(t *testing.T) {
	// A split that does not reduce error must be collapsed: both children
	// predict label 0 with the same error rate as the parent.
	useless := &node{
		dist:      []int{12, 2},
		attr:      0,
		threshold: datum.NewInt(5),
		left:      &node{leaf: true, label: 0, dist: []int{6, 1}},
		right:     &node{leaf: true, label: 0, dist: []int{6, 1}},
	}
	prune(useless, 0.25)
	if !useless.leaf {
		t.Error("useless split survived pruning")
	}
	if useless.label != 0 {
		t.Errorf("collapsed label = %d, want 0", useless.label)
	}
	// A split that perfectly separates classes must survive.
	useful := &node{
		dist:      []int{10, 10},
		attr:      0,
		threshold: datum.NewInt(5),
		left:      &node{leaf: true, label: 0, dist: []int{10, 0}},
		right:     &node{leaf: true, label: 1, dist: []int{0, 10}},
	}
	prune(useful, 0.25)
	if useful.leaf {
		t.Error("useful split was pruned")
	}
}

func TestMinLeaf(t *testing.T) {
	// Enough instances that the tiny-dataset MinLeaf relaxation does not
	// kick in (it requires Len >= 10*MinLeaf).
	ds := numericDS("x")
	for i := 0; i < 60; i++ {
		label := 0
		if i == 59 {
			label = 1 // single outlier
		}
		ds.Add([]datum.D{datum.NewInt(int64(i))}, label)
	}
	tree := Train(ds, Options{MinLeaf: 5, Confidence: 1})
	// A split isolating the single outlier is forbidden by MinLeaf=5.
	for _, r := range tree.Rules() {
		if r.Support < 5 {
			t.Errorf("leaf with support %d violates MinLeaf", r.Support)
		}
	}
}

func TestRulesPartitionInputSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ds := numericDS("a", "b")
	for i := 0; i < 400; i++ {
		a, b := rng.Intn(100), rng.Intn(100)
		label := 0
		if a > 50 && b > 30 {
			label = 1
		} else if a <= 20 {
			label = 2
		}
		ds.Add([]datum.D{datum.NewInt(int64(a)), datum.NewInt(int64(b))}, label)
	}
	tree := Train(ds, Options{})
	rules := tree.Rules()
	// Every point must match exactly one rule, and that rule's label must
	// agree with Classify.
	for trial := 0; trial < 200; trial++ {
		row := []datum.D{datum.NewInt(int64(rng.Intn(100))), datum.NewInt(int64(rng.Intn(100)))}
		matches := 0
		var matchLabel int
		for _, r := range rules {
			if ruleMatches(r, row) {
				matches++
				matchLabel = r.Label
			}
		}
		if matches != 1 {
			t.Fatalf("row %v matched %d rules, want 1", row, matches)
		}
		if matchLabel != tree.Classify(row) {
			t.Fatalf("rule label %d != classify %d", matchLabel, tree.Classify(row))
		}
	}
}

func ruleMatches(r Rule, row []datum.D) bool {
	for _, c := range r.Conds {
		v := row[c.Attr]
		switch c.Op {
		case CondLe:
			if datum.Compare(v, c.Value) > 0 {
				return false
			}
		case CondGt:
			if datum.Compare(v, c.Value) <= 0 {
				return false
			}
		case CondEq:
			if !datum.Equal(v, c.Value) {
				return false
			}
		case CondNe:
			if datum.Equal(v, c.Value) {
				return false
			}
		}
	}
	return true
}

func TestKFoldError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ds := warehouseDS(400, rng)
	if err := KFoldError(ds, 5, Options{}); err > 0.05 {
		t.Errorf("CV error %f on separable data, want ~0", err)
	}
	// Noise should produce high CV error.
	noise := numericDS("x")
	for i := 0; i < 200; i++ {
		noise.Add([]datum.D{datum.NewInt(int64(rng.Intn(10)))}, rng.Intn(2))
	}
	if err := KFoldError(noise, 5, Options{}); err < 0.2 {
		t.Errorf("CV error %f on noise, want high", err)
	}
}

// TestKFoldErrorSortedRanges: explanation hands KFoldError its rows
// sorted by key, and a key-sorted table is range-labelled (TPC-C's keys
// are warehouse-major). An ascending attribute whose label is constant
// over 10 contiguous ranges is learnable from any fold's training rows,
// so its cross-validation error is 0. Folds of contiguous rows would
// hold out whole ranges the tree never saw and read ~1.
func TestKFoldErrorSortedRanges(t *testing.T) {
	ds := numericDS("x")
	for i := 0; i < 1000; i++ {
		x := int64(i / 10) // 10 rows per value, so every fold trains on every value
		ds.Add([]datum.D{datum.NewInt(x)}, int(x/10))
	}
	if err := KFoldError(ds, 5, Options{}); err != 0 {
		t.Errorf("CV error %f on range-labelled sorted rows, want 0", err)
	}
}

func TestRuleString(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds := warehouseDS(200, rng)
	tree := Train(ds, Options{})
	for _, r := range tree.Rules() {
		s := tree.RuleString(r)
		if s == "" {
			t.Error("empty rule string")
		}
	}
	// Single-leaf tree renders "<empty>" like the paper's item table.
	pure := numericDS("x")
	pure.Add([]datum.D{datum.NewInt(1)}, 0)
	pure.Add([]datum.D{datum.NewInt(2)}, 0)
	pt := Train(pure, Options{})
	if got := pt.RuleString(pt.Rules()[0]); got != "<empty>" {
		t.Errorf("pure rule = %q, want <empty>", got)
	}
}

func TestBinomialUpperLimit(t *testing.T) {
	// Known C4.5 values: U(0,1,.25)=0.75, U(0,2,.25)=0.5, U(0,6,.25)≈0.206.
	for _, tc := range []struct {
		e, n int
		want float64
	}{
		{0, 1, 0.75},
		{0, 2, 0.5},
		{0, 6, 0.206},
		{5, 5, 1.0},
	} {
		got := binomialUpperLimit(tc.e, tc.n, 0.25)
		if diff := got - tc.want; diff > 0.005 || diff < -0.005 {
			t.Errorf("U(%d,%d,.25) = %f, want %f", tc.e, tc.n, got, tc.want)
		}
	}
}

func TestAddPanicsOnBadRow(t *testing.T) {
	ds := numericDS("a", "b")
	defer func() {
		if recover() == nil {
			t.Error("Add with wrong arity should panic")
		}
	}()
	ds.Add([]datum.D{datum.NewInt(1)}, 0)
}

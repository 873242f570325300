package dtree

// Differential tests: the columnar trainer must reproduce the reference
// C4.5 (naive_ref_test.go) exactly — same splits, same thresholds, same
// leaf distributions — across a workload/seed/option matrix, and must
// produce byte-identical trees at every worker count.

import (
	"fmt"
	"math/rand"
	"testing"

	"schism/internal/datum"
)

// genDataset builds one of several dataset shapes that exercise numeric,
// categorical, NULL-bearing and noisy attributes.
func genDataset(shape string, n int, rng *rand.Rand) *Dataset {
	switch shape {
	case "warehouse":
		// TPC-C stock style: s_w_id determines the label, s_i_id is noise.
		ds := numericDS("s_i_id", "s_w_id")
		for i := 0; i < n; i++ {
			w := int64(1 + rng.Intn(4))
			ds.Add([]datum.D{datum.NewInt(int64(rng.Intn(100000))), datum.NewInt(w)}, int(w-1)/2)
		}
		return ds
	case "mixed":
		// One numeric + one categorical attribute, label from both.
		ds := &Dataset{Attrs: []Attr{{Name: "x", Kind: Numeric}, {Name: "color", Kind: Categorical}}}
		colors := []string{"red", "green", "blue", "cyan"}
		for i := 0; i < n; i++ {
			x := rng.Intn(100)
			c := colors[rng.Intn(len(colors))]
			label := 0
			if x > 60 || c == "blue" {
				label = 1
			}
			ds.Add([]datum.D{datum.NewInt(int64(x)), datum.NewString(c)}, label)
		}
		return ds
	case "nulls":
		// 10% NULLs in both a numeric and a categorical attribute.
		ds := &Dataset{Attrs: []Attr{{Name: "v", Kind: Numeric}, {Name: "tag", Kind: Categorical}}}
		for i := 0; i < n; i++ {
			v := datum.NewFloat(rng.Float64() * 50)
			if rng.Intn(10) == 0 {
				v = datum.NullD
			}
			tag := datum.NewString(fmt.Sprintf("t%d", rng.Intn(6)))
			if rng.Intn(10) == 0 {
				tag = datum.NullD
			}
			label := rng.Intn(3)
			if !v.IsNull() && v.F > 30 {
				label = 2
			}
			ds.Add([]datum.D{v, tag}, label)
		}
		return ds
	case "noise":
		// Pure noise: exercises the MDL guard and pruning paths.
		ds := numericDS("a", "b")
		for i := 0; i < n; i++ {
			ds.Add([]datum.D{datum.NewInt(int64(rng.Intn(50))), datum.NewInt(int64(rng.Intn(8)))}, rng.Intn(2))
		}
		return ds
	case "manycats":
		// High-arity categorical: 40 categories, label concentrated.
		ds := &Dataset{Attrs: []Attr{{Name: "grp", Kind: Categorical}, {Name: "k", Kind: Numeric}}}
		for i := 0; i < n; i++ {
			g := rng.Intn(40)
			ds.Add([]datum.D{datum.NewString(fmt.Sprintf("g%02d", g)), datum.NewInt(int64(rng.Intn(1000)))}, g%5)
		}
		return ds
	}
	panic("unknown shape " + shape)
}

var diffOptionMatrix = []Options{
	{},
	{MinLeaf: 1, Confidence: 0.5},
	{MinLeaf: 5},
	{Confidence: 1},
	{MinLeaf: 3, Confidence: 0.1},
}

// TestColumnarMatchesNaive pins the columnar trainer to the reference
// implementation across shapes, sizes, seeds and option sets.
func TestColumnarMatchesNaive(t *testing.T) {
	shapes := []string{"warehouse", "mixed", "nulls", "noise", "manycats"}
	sizes := []int{15, 120, 900}
	for _, shape := range shapes {
		for _, size := range sizes {
			for seed := int64(1); seed <= 3; seed++ {
				for oi, opts := range diffOptionMatrix {
					name := fmt.Sprintf("%s/n%d/s%d/o%d", shape, size, seed, oi)
					t.Run(name, func(t *testing.T) {
						ds := genDataset(shape, size, rand.New(rand.NewSource(seed)))
						want := naiveTrain(ds, opts)
						got := Train(ds, opts)
						if g, w := got.String(), want.String(); g != w {
							t.Fatalf("columnar tree differs from reference\n--- columnar:\n%s--- reference:\n%s", g, w)
						}
					})
				}
			}
		}
	}
}

// TestWorkerCountInvariance: the same dataset and options must yield a
// byte-identical tree at every worker count, including counts far above
// GOMAXPROCS.
func TestWorkerCountInvariance(t *testing.T) {
	for _, shape := range []string{"warehouse", "mixed", "nulls"} {
		ds := genDataset(shape, 6000, rand.New(rand.NewSource(9)))
		base := Train(ds, Options{Workers: 1})
		for _, workers := range []int{2, 4, 16} {
			got := Train(ds, Options{Workers: workers})
			if got.String() != base.String() {
				t.Fatalf("%s: tree differs between Workers=1 and Workers=%d", shape, workers)
			}
		}
	}
}

// TestColumnarClassifyAgreement: beyond structural equality, predictions
// must agree on unseen probes (guards Classify against representation
// drift).
func TestColumnarClassifyAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ds := genDataset("mixed", 500, rng)
	naive := naiveTrain(ds, Options{})
	col := Train(ds, Options{})
	colors := []string{"red", "green", "blue", "cyan", "new"}
	for trial := 0; trial < 500; trial++ {
		row := []datum.D{datum.NewInt(int64(rng.Intn(120) - 10)), datum.NewString(colors[rng.Intn(len(colors))])}
		if g, w := col.Classify(row), naive.Classify(row); g != w {
			t.Fatalf("Classify(%v) = %d, reference %d", row, g, w)
		}
	}
}

// TestColumnarLargeScale runs one bigger config (the -short flag keeps CI
// fast) to shake out segment-partitioning bugs that only appear at depth.
func TestColumnarLargeScale(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 4000
	}
	ds := genDataset("manycats", n, rand.New(rand.NewSource(23)))
	want := naiveTrain(ds, Options{Confidence: 1, MinLeaf: 2})
	got := Train(ds, Options{Confidence: 1, MinLeaf: 2})
	if got.String() != want.String() {
		t.Fatal("large-scale tree differs from reference")
	}
}

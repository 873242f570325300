package dtree

// The seed trainer, kept verbatim as the reference implementation: a
// recursive C4.5 that materialises and re-sorts boxed (value, label) pairs
// at every node. differential_test.go pins the columnar trainer in
// dtree.go/columnar.go to produce byte-identical trees across a
// workload/seed/option matrix, and bench_test.go measures the speedup.

import (
	"math"
	"sort"

	"schism/internal/datum"
)

// naiveTrain fits a decision tree with the reference trainer; it applies
// the exact option handling of Train.
func naiveTrain(ds *Dataset, opts Options) *Tree {
	opts = opts.withDefaults()
	if ds.Len() < 10*opts.MinLeaf {
		opts.MinLeaf = 1
	}
	if ds.NumLabels == 0 {
		ds.NumLabels = 1
	}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{attrs: ds.Attrs, numLabels: ds.NumLabels}
	t.root = naiveBuild(ds, idx, opts)
	if opts.Confidence < 1 {
		prune(t.root, opts.Confidence)
	}
	return t
}

func naiveBuild(ds *Dataset, idx []int, opts Options) *node {
	dist := naiveDistribution(ds, idx)
	n := &node{dist: dist, label: argmax(dist)}
	if pure(dist) || len(idx) < 2*opts.MinLeaf {
		n.leaf = true
		return n
	}
	s := naiveBestSplit(ds, idx, opts)
	if s == nil {
		n.leaf = true
		return n
	}
	var left, right []int
	for _, i := range idx {
		if goesLeft(ds.Rows[i][s.attr], ds.Attrs[s.attr].Kind, s.threshold) {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < opts.MinLeaf || len(right) < opts.MinLeaf {
		n.leaf = true
		return n
	}
	n.attr = s.attr
	n.threshold = s.threshold
	n.kind = ds.Attrs[s.attr].Kind
	n.left = naiveBuild(ds, left, opts)
	n.right = naiveBuild(ds, right, opts)
	return n
}

func naiveDistribution(ds *Dataset, idx []int) []int {
	dist := make([]int, ds.NumLabels)
	for _, i := range idx {
		dist[ds.Labels[i]]++
	}
	return dist
}

func naiveBestSplit(ds *Dataset, idx []int, opts Options) *split {
	parentDist := naiveDistribution(ds, idx)
	parentH := entropy(parentDist, len(idx))
	var best *split
	for a := range ds.Attrs {
		var s *split
		if ds.Attrs[a].Kind == Numeric {
			s = naiveBestNumericSplit(ds, idx, a, parentH, opts)
		} else {
			s = naiveBestCategoricalSplit(ds, idx, a, parentH, opts)
		}
		if s != nil && (best == nil || s.gainRatio > best.gainRatio) {
			best = s
		}
	}
	return best
}

func naiveBestNumericSplit(ds *Dataset, idx []int, attr int, parentH float64, opts Options) *split {
	type pair struct {
		v     datum.D
		label int
	}
	pairs := make([]pair, 0, len(idx))
	for _, i := range idx {
		v := ds.Rows[i][attr]
		if v.IsNull() {
			continue
		}
		pairs = append(pairs, pair{v: v, label: ds.Labels[i]})
	}
	if len(pairs) < 2*opts.MinLeaf {
		return nil
	}
	sort.Slice(pairs, func(i, j int) bool { return datum.Compare(pairs[i].v, pairs[j].v) < 0 })
	total := len(pairs)
	leftDist := make([]int, ds.NumLabels)
	rightDist := make([]int, ds.NumLabels)
	distinct := 1
	for i, p := range pairs {
		rightDist[p.label]++
		if i > 0 && !datum.Equal(pairs[i-1].v, p.v) {
			distinct++
		}
	}
	if distinct < 2 {
		return nil
	}
	mdl := math.Log2(float64(distinct-1)) / float64(total)
	var best *split
	for i := 0; i < total-1; i++ {
		leftDist[pairs[i].label]++
		rightDist[pairs[i].label]--
		if datum.Equal(pairs[i].v, pairs[i+1].v) {
			continue
		}
		nl := i + 1
		nr := total - nl
		if nl < opts.MinLeaf || nr < opts.MinLeaf {
			continue
		}
		gain := parentH - (float64(nl)*entropy(leftDist, nl)+float64(nr)*entropy(rightDist, nr))/float64(total) - mdl
		if gain <= 1e-12 {
			continue
		}
		si := splitInfo(nl, nr)
		if si <= 0 {
			continue
		}
		gr := gain / si
		if best == nil || gr > best.gainRatio {
			best = &split{attr: attr, threshold: midpoint(pairs[i].v, pairs[i+1].v), gainRatio: gr}
		}
	}
	return best
}

// naiveSeedTrain is the complete seed pipeline — reference trainer AND the
// seed's term-summation binomial pruning — used as the honest baseline in
// BenchmarkExplain.
func naiveSeedTrain(ds *Dataset, opts Options) *Tree {
	opts = opts.withDefaults()
	if ds.Len() < 10*opts.MinLeaf {
		opts.MinLeaf = 1
	}
	if ds.NumLabels == 0 {
		ds.NumLabels = 1
	}
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{attrs: ds.Attrs, numLabels: ds.NumLabels}
	t.root = naiveBuild(ds, idx, opts)
	if opts.Confidence < 1 {
		naivePrune(t.root, opts.Confidence)
	}
	return t
}

func naivePrune(n *node, confidence float64) {
	if n.leaf {
		return
	}
	naivePrune(n.left, confidence)
	naivePrune(n.right, confidence)
	subtreeErr := naiveEstimatedSubtreeError(n, confidence)
	leafErr := naivePessimisticError(n.dist, confidence)
	if leafErr <= subtreeErr+1e-9 {
		n.leaf = true
		n.left, n.right = nil, nil
		n.label = argmax(n.dist)
	}
}

func naiveEstimatedSubtreeError(n *node, confidence float64) float64 {
	if n.leaf {
		return naivePessimisticError(n.dist, confidence)
	}
	return naiveEstimatedSubtreeError(n.left, confidence) + naiveEstimatedSubtreeError(n.right, confidence)
}

func naivePessimisticError(dist []int, confidence float64) float64 {
	n := sum(dist)
	if n == 0 {
		return 0
	}
	errs := n - dist[argmax(dist)]
	return float64(n) * naiveBinomialUpperLimit(errs, n, confidence)
}

func naiveBinomialUpperLimit(e, n int, cf float64) float64 {
	if e >= n {
		return 1
	}
	lo := float64(e) / float64(n)
	hi := 1.0
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if naiveBinomCDF(e, n, mid) > cf {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// naiveBinomCDF is the seed's P(X <= e) for X ~ Binomial(n, p): e+1 terms
// summed in log space — O(e) Lgamma/Exp calls per evaluation, which is
// what made pruning dominate seed explain times.
func naiveBinomCDF(e, n int, p float64) float64 {
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return 0
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	logP := math.Log(p)
	logQ := math.Log(1 - p)
	total := 0.0
	for i := 0; i <= e; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgNI, _ := math.Lgamma(float64(n - i + 1))
		total += math.Exp(lgN - lgI - lgNI + float64(i)*logP + float64(n-i)*logQ)
	}
	if total > 1 {
		total = 1
	}
	return total
}

func naiveBestCategoricalSplit(ds *Dataset, idx []int, attr int, parentH float64, opts Options) *split {
	counts := make(map[datum.D][]int) // value -> class distribution
	order := []datum.D{}
	for _, i := range idx {
		v := ds.Rows[i][attr]
		if v.IsNull() {
			continue
		}
		if _, ok := counts[v]; !ok {
			counts[v] = make([]int, ds.NumLabels)
			order = append(order, v)
		}
		counts[v][ds.Labels[i]]++
	}
	if len(order) < 2 {
		return nil
	}
	parentDist := naiveDistribution(ds, idx)
	total := len(idx)
	var best *split
	for _, v := range order {
		leftDist := counts[v]
		nl := sum(leftDist)
		nr := total - nl
		if nl < opts.MinLeaf || nr < opts.MinLeaf {
			continue
		}
		rightDist := make([]int, ds.NumLabels)
		for l := range rightDist {
			rightDist[l] = parentDist[l] - leftDist[l]
		}
		gain := parentH - (float64(nl)*entropy(leftDist, nl)+float64(nr)*entropy(rightDist, nr))/float64(total)
		if gain <= 1e-12 {
			continue
		}
		si := splitInfo(nl, nr)
		if si <= 0 {
			continue
		}
		gr := gain / si
		if best == nil || gr > best.gainRatio {
			best = &split{attr: attr, threshold: v, gainRatio: gr}
		}
	}
	return best
}

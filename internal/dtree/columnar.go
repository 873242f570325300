package dtree

// The columnar trainer. Instead of re-sorting boxed rows at every node
// (the reference implementation in naive_ref_test.go), it builds one
// sorted index column per numeric attribute up front and keeps every
// column partitioned by node as the tree grows: splitting a node stably
// repartitions each column's segment, so sortedness is inherited and the
// per-node cost is a linear sweep. Class histograms, partition buffers and
// categorical scratch come from a pool, making steady-state node
// evaluation allocation-free. Sibling subtrees and, at large nodes,
// per-attribute sweeps run on up to Options.Workers goroutines; because
// each node's computation is a pure function of its (disjoint) segment,
// the learned tree is byte-identical at any worker count.

import (
	"math"
	"runtime"
	"sort"
	"sync"

	"schism/internal/datum"
)

const (
	// parallelAttrMin is the node size above which attribute sweeps fan
	// out to the worker pool.
	parallelAttrMin = 4096
	// parallelSubtreeMin is the child size above which a sibling subtree
	// is built on another worker.
	parallelSubtreeMin = 2048
)

// column is the training-time representation of one attribute.
type column struct {
	kind AttrKind
	vals []datum.D // columnar copy of the attribute, indexed by instance

	// Numeric attributes: instance ids sorted ascending by value (stable
	// by id), repartitioned in place as nodes split. clean marks columns
	// containing only Int/Float/NULL, which sweep on dense float64 keys;
	// mixed columns fall back to datum.Compare.
	ord   []int32
	keys  []float64
	clean bool

	// Categorical attributes: interned category id per instance (-1 for
	// NULL), id order = first appearance in the dataset.
	cat     []int32
	numCats int
}

// trainer holds the shared training state. rows (original instance order)
// and every numeric ord column are partitioned identically: a node owns
// the same index range [lo, hi) of each.
type trainer struct {
	opts      Options
	numLabels int
	attrs     []Attr
	n         int
	labels    []int32
	cols      []column
	rows      []int32
	side      []uint8 // per-instance split side, written by the owning node
	maxCats   int

	scratch sync.Pool     // *sweepScratch
	sem     chan struct{} // worker tokens (nil when Workers == 1)
}

// sweepScratch is the per-worker reusable state of one node evaluation.
type sweepScratch struct {
	left, right []int   // class histograms
	catHist     []int   // numCats x numLabels histogram (widest column)
	catMark     []bool  // category already seen at this node
	catSeen     []int32 // categories in node first-appearance order
	catFirst    []int32 // first instance of each catSeen category
	buf         []int32 // stable-partition spill buffer
}

func newTrainer(ds *Dataset, opts Options) *trainer {
	n := ds.Len()
	tr := &trainer{
		opts:      opts,
		numLabels: ds.NumLabels,
		attrs:     ds.Attrs,
		n:         n,
		labels:    make([]int32, n),
		cols:      make([]column, len(ds.Attrs)),
		rows:      make([]int32, n),
		side:      make([]uint8, n),
	}
	for i, l := range ds.Labels {
		tr.labels[i] = int32(l)
	}
	for i := range tr.rows {
		tr.rows[i] = int32(i)
	}
	for a := range ds.Attrs {
		tr.buildColumn(ds, a)
		if c := &tr.cols[a]; c.kind == Categorical && c.numCats > tr.maxCats {
			tr.maxCats = c.numCats
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > 1 {
		tr.sem = make(chan struct{}, workers-1)
	}
	tr.scratch.New = func() any {
		return &sweepScratch{
			left:    make([]int, tr.numLabels),
			right:   make([]int, tr.numLabels),
			catHist: make([]int, tr.maxCats*tr.numLabels),
			catMark: make([]bool, tr.maxCats),
			buf:     make([]int32, tr.n),
		}
	}
	return tr
}

// buildColumn extracts attribute a into columnar form: a value column plus
// either a pre-sorted index (numeric) or interned category ids.
func (tr *trainer) buildColumn(ds *Dataset, a int) {
	c := &tr.cols[a]
	c.kind = ds.Attrs[a].Kind
	c.vals = make([]datum.D, tr.n)
	for i, row := range ds.Rows {
		c.vals[i] = row[a]
	}
	if c.kind == Categorical {
		// Intern by the raw datum (struct equality, matching the reference
		// trainer's map keys) in dataset first-appearance order.
		c.cat = make([]int32, tr.n)
		ids := make(map[datum.D]int32)
		for i, v := range c.vals {
			if v.IsNull() {
				c.cat[i] = -1
				continue
			}
			id, ok := ids[v]
			if !ok {
				id = int32(len(ids))
				ids[v] = id
			}
			c.cat[i] = id
		}
		c.numCats = len(ids)
		return
	}
	c.ord = make([]int32, tr.n)
	for i := range c.ord {
		c.ord[i] = int32(i)
	}
	c.clean = true
	for _, v := range c.vals {
		if v.K == datum.String {
			c.clean = false
			break
		}
	}
	if c.clean {
		// Dense float64 keys are exactly datum.Compare-consistent for
		// Int/Float/NULL columns (Compare widens Int to float64); NULLs
		// sort below every number. The one-time sort is a stable LSD radix
		// over order-preserving uint64 codes (NULL = 0), so equal keys keep
		// ascending instance order.
		c.keys = make([]float64, tr.n)
		codes := make([]uint64, tr.n)
		for i, v := range c.vals {
			if v.IsNull() {
				c.keys[i] = math.Inf(-1)
				codes[i] = 0
				continue
			}
			c.keys[i], _ = v.AsFloat()
			code := floatCode(c.keys[i])
			if code == 0 {
				code = 1 // keep NULL strictly smallest
			}
			codes[i] = code
		}
		c.ord = radixSortByCode(c.ord, codes)
	} else {
		sortInt32(c.ord, func(x, y int32) bool {
			if cmp := datum.Compare(c.vals[x], c.vals[y]); cmp != 0 {
				return cmp < 0
			}
			return x < y
		})
	}
}

func (tr *trainer) train() *node {
	return tr.build(0, tr.n)
}

// build grows the subtree over segment [lo, hi).
func (tr *trainer) build(lo, hi int) *node {
	dist := make([]int, tr.numLabels)
	for _, i := range tr.rows[lo:hi] {
		dist[tr.labels[i]]++
	}
	n := &node{dist: dist, label: argmax(dist)}
	if pure(dist) || hi-lo < 2*tr.opts.MinLeaf {
		n.leaf = true
		return n
	}
	s := tr.bestSplit(lo, hi, dist)
	if s == nil {
		n.leaf = true
		return n
	}

	// Mark each instance's side, then stably repartition every column so
	// both children inherit sorted segments.
	c := &tr.cols[s.attr]
	kind := tr.attrs[s.attr].Kind
	nl := 0
	if kind == Numeric && c.clean {
		tk, _ := s.threshold.AsFloat()
		for _, i := range tr.rows[lo:hi] {
			if c.keys[i] <= tk { // NULL is -Inf: NULLs go left, as Compare orders them
				tr.side[i] = 0
				nl++
			} else {
				tr.side[i] = 1
			}
		}
	} else {
		for _, i := range tr.rows[lo:hi] {
			if goesLeft(c.vals[i], kind, s.threshold) {
				tr.side[i] = 0
				nl++
			} else {
				tr.side[i] = 1
			}
		}
	}
	if nl < tr.opts.MinLeaf || (hi-lo)-nl < tr.opts.MinLeaf {
		n.leaf = true
		return n
	}
	sc := tr.scratch.Get().(*sweepScratch)
	stablePartition(tr.rows[lo:hi], tr.side, sc.buf)
	for a := range tr.cols {
		if tr.cols[a].ord != nil {
			stablePartition(tr.cols[a].ord[lo:hi], tr.side, sc.buf)
		}
	}
	tr.scratch.Put(sc)

	n.attr = s.attr
	n.threshold = s.threshold
	n.kind = kind
	mid := lo + nl
	if tr.sem != nil && hi-mid >= parallelSubtreeMin {
		select {
		case tr.sem <- struct{}{}:
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.right = tr.build(mid, hi)
				<-tr.sem
			}()
			n.left = tr.build(lo, mid)
			wg.Wait()
			return n
		default:
		}
	}
	n.left = tr.build(lo, mid)
	n.right = tr.build(mid, hi)
	return n
}

// bestSplit sweeps every attribute for the binary split with the best gain
// ratio (C4.5's criterion). Ties resolve to the earliest attribute and,
// within an attribute, the earliest candidate — the reference trainer's
// order — so results are deterministic.
func (tr *trainer) bestSplit(lo, hi int, dist []int) *split {
	parentH := entropy(dist, hi-lo)
	nAttrs := len(tr.attrs)
	if tr.sem != nil && nAttrs > 1 && (hi-lo) >= parallelAttrMin {
		results := make([]*split, nAttrs)
		var wg sync.WaitGroup
		for a := 0; a < nAttrs; a++ {
			a := a
			select {
			case tr.sem <- struct{}{}:
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[a] = tr.sweepAttr(a, lo, hi, parentH, dist)
					<-tr.sem
				}()
			default:
				results[a] = tr.sweepAttr(a, lo, hi, parentH, dist)
			}
		}
		wg.Wait()
		var best *split
		for _, s := range results {
			if s != nil && (best == nil || s.gainRatio > best.gainRatio) {
				best = s
			}
		}
		return best
	}
	var best *split
	for a := 0; a < nAttrs; a++ {
		if s := tr.sweepAttr(a, lo, hi, parentH, dist); s != nil && (best == nil || s.gainRatio > best.gainRatio) {
			best = s
		}
	}
	return best
}

func (tr *trainer) sweepAttr(a, lo, hi int, parentH float64, dist []int) *split {
	sc := tr.scratch.Get().(*sweepScratch)
	var s *split
	if tr.attrs[a].Kind == Numeric {
		s = tr.sweepNumeric(a, lo, hi, parentH, sc)
	} else {
		s = tr.sweepCategorical(a, lo, hi, parentH, dist, sc)
	}
	tr.scratch.Put(sc)
	return s
}

// sweepNumeric scans the node's pre-sorted segment of attribute a once,
// evaluating a threshold at every boundary between distinct values.
func (tr *trainer) sweepNumeric(a, lo, hi int, parentH float64, sc *sweepScratch) *split {
	c := &tr.cols[a]
	seg := c.ord[lo:hi]
	left, right := sc.left, sc.right
	for l := range left {
		left[l] = 0
		right[l] = 0
	}
	// NULLs sort first within the segment; skip that prefix.
	start := 0
	for start < len(seg) && c.vals[seg[start]].IsNull() {
		start++
	}
	vals := seg[start:]
	total := len(vals)
	if total < 2*tr.opts.MinLeaf {
		return nil
	}
	distinct := 1
	for p, i := range vals {
		right[tr.labels[i]]++
		if p > 0 && !c.sameValue(vals[p-1], i) {
			distinct++
		}
	}
	if distinct < 2 {
		return nil
	}
	// C4.5 (Release 8) MDL correction: choosing among (distinct-1)
	// candidate thresholds costs log2(distinct-1)/N bits, charged against
	// the gain — the main guard against spurious splits on noisy
	// continuous attributes.
	mdl := math.Log2(float64(distinct-1)) / float64(total)
	bestP, bestGR := -1, 0.0
	for p := 0; p < total-1; p++ {
		i := vals[p]
		left[tr.labels[i]]++
		right[tr.labels[i]]--
		if c.sameValue(i, vals[p+1]) {
			continue
		}
		nl := p + 1
		nr := total - nl
		if nl < tr.opts.MinLeaf || nr < tr.opts.MinLeaf {
			continue
		}
		gain := parentH - (float64(nl)*entropy(left, nl)+float64(nr)*entropy(right, nr))/float64(total) - mdl
		if gain <= 1e-12 {
			continue
		}
		si := splitInfo(nl, nr)
		if si <= 0 {
			continue
		}
		if gr := gain / si; bestP < 0 || gr > bestGR {
			bestP, bestGR = p, gr
		}
	}
	if bestP < 0 {
		return nil
	}
	return &split{attr: a, threshold: midpoint(c.vals[vals[bestP]], c.vals[vals[bestP+1]]), gainRatio: bestGR}
}

// sameValue reports whether instances x and y hold equal values of the
// column (datum.Equal semantics).
func (c *column) sameValue(x, y int32) bool {
	if c.clean {
		return c.keys[x] == c.keys[y]
	}
	return datum.Equal(c.vals[x], c.vals[y])
}

// sweepCategorical evaluates one (== v / != v) split per distinct value of
// attribute a at this node, visiting values in node first-appearance order
// (the reference trainer's candidate order).
func (tr *trainer) sweepCategorical(a, lo, hi int, parentH float64, dist []int, sc *sweepScratch) *split {
	c := &tr.cols[a]
	L := tr.numLabels
	seen, first := sc.catSeen[:0], sc.catFirst[:0]
	for _, i := range tr.rows[lo:hi] {
		cid := c.cat[i]
		if cid < 0 {
			continue
		}
		if !sc.catMark[cid] {
			sc.catMark[cid] = true
			seen = append(seen, cid)
			first = append(first, i)
		}
		sc.catHist[int(cid)*L+int(tr.labels[i])]++
	}
	sc.catSeen, sc.catFirst = seen, first
	defer func() {
		for _, cid := range seen {
			sc.catMark[cid] = false
			h := sc.catHist[int(cid)*L : int(cid+1)*L]
			for l := range h {
				h[l] = 0
			}
		}
	}()
	if len(seen) < 2 {
		return nil
	}
	total := hi - lo
	right := sc.right
	bestS, bestGR := -1, 0.0
	for s, cid := range seen {
		leftDist := sc.catHist[int(cid)*L : int(cid+1)*L]
		nl := sum(leftDist)
		nr := total - nl
		if nl < tr.opts.MinLeaf || nr < tr.opts.MinLeaf {
			continue
		}
		for l := range right {
			right[l] = dist[l] - leftDist[l]
		}
		gain := parentH - (float64(nl)*entropy(leftDist, nl)+float64(nr)*entropy(right, nr))/float64(total)
		if gain <= 1e-12 {
			continue
		}
		si := splitInfo(nl, nr)
		if si <= 0 {
			continue
		}
		if gr := gain / si; bestS < 0 || gr > bestGR {
			bestS, bestGR = s, gr
		}
	}
	if bestS < 0 {
		return nil
	}
	// The category's representative value is its first instance's.
	return &split{attr: a, threshold: c.vals[first[bestS]], gainRatio: bestGR}
}

func sortInt32(s []int32, less func(x, y int32) bool) {
	sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// floatCode maps a float64 to a uint64 whose unsigned order matches the
// float order (the usual sign-flip transform).
func floatCode(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// radixSortByCode stably sorts ids ascending by codes[id] (LSD radix,
// eight 8-bit passes, constant-key passes skipped). Returns the sorted
// slice, which may alias either ids or the internal buffer.
func radixSortByCode(ids []int32, codes []uint64) []int32 {
	if len(ids) < 2 {
		return ids
	}
	tmp := make([]int32, len(ids))
	var count [256]int
	src, dst := ids, tmp
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, id := range src {
			count[byte(codes[id]>>shift)]++
		}
		if count[byte(codes[src[0]]>>shift)] == len(src) {
			continue // every key shares this byte
		}
		pos := 0
		for b := 0; b < 256; b++ {
			c := count[b]
			count[b] = pos
			pos += c
		}
		for _, id := range src {
			b := byte(codes[id] >> shift)
			dst[count[b]] = id
			count[b]++
		}
		src, dst = dst, src
	}
	return src
}

// stablePartition reorders seg so instances with side 0 precede those with
// side 1, preserving relative order on both sides.
func stablePartition(seg []int32, side []uint8, buf []int32) {
	nl, nr := 0, 0
	for _, id := range seg {
		if side[id] == 0 {
			seg[nl] = id
			nl++
		} else {
			buf[nr] = id
			nr++
		}
	}
	copy(seg[nl:], buf[:nr])
}

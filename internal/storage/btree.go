// Package storage implements the in-memory shared-nothing storage engine
// each cluster node runs: typed tables with int64 primary keys stored in a
// B+tree (ordered scans for YCSB-E style range queries), plus optional
// single-column hash indexes for secondary equality lookups.
package storage

import (
	"math"

	"schism/internal/datum"
)

// btree is a B+tree mapping int64 keys to rows of a fixed column count.
// Leaves are linked for ordered range scans and hold their rows packed in
// one slab (see leaf). Deletion removes entries from leaves without
// rebalancing (searches and scans stay correct; the tree may become less
// dense under heavy deletion, which OLTP workloads here never approach).
type btree struct {
	root   node
	height int
	size   int
	ncols  int // columns per row
	stride int // slab words per row: ncols values, then the packed kinds
}

const (
	// maxLeaf/maxInternal are split thresholds (order of the tree).
	maxLeaf     = 64
	maxInternal = 64
	// kindsPerWord is how many 2-bit datum kinds one slab word holds.
	kindsPerWord = 32
	// noSlot is the value word of the empty string, which takes no slot in
	// leaf.strs — so a live slot never holds "" and "" marks a free one.
	noSlot = ^uint64(0)
)

type node interface{ isNode() }

// leaf stores len(keys) rows. Row i occupies slab[i*stride:(i+1)*stride]:
// one word per column (an Int's bits, a Float's IEEE bits, a String's
// index into strs, 0 for NULL) followed by the columns' datum.Kinds, two
// bits each. The kind is kept per value, not taken from the schema, so a
// row reads back as it was written whatever the column types say. An
// all-numeric row therefore costs 8 bytes of key, 8 per column and 8 per
// 32 columns, in arrays the collector never scans; strs is allocated by
// the first non-empty string stored in the leaf.
type leaf struct {
	keys []int64
	slab []uint64
	strs []string
	next *leaf
	// run is the position right after the row the leaf's last insert
	// opened, or -1 once a split moved that row away or halved the leaf:
	// an insert landing there continues an ascending run (see insertNode).
	run int
}

type internal struct {
	// children[i] covers keys < keys[i]; children[len(keys)] covers the rest.
	keys     []int64
	children []node
}

func (*leaf) isNode()     {}
func (*internal) isNode() {}

func newBTree(ncols int) *btree {
	return &btree{
		root:   &leaf{},
		ncols:  ncols,
		stride: ncols + (ncols+kindsPerWord-1)/kindsPerWord,
	}
}

// Len returns the number of stored keys.
func (t *btree) Len() int { return t.size }

// find returns the leaf and position holding key.
func (t *btree) find(key int64) (*leaf, int, bool) {
	l := t.findLeaf(key)
	i := searchKeys(l.keys, key)
	return l, i, i < len(l.keys) && l.keys[i] == key
}

// findLeaf descends to the leaf that would contain key.
func (t *btree) findLeaf(key int64) *leaf {
	n := t.root
	for {
		switch x := n.(type) {
		case *leaf:
			return x
		case *internal:
			i := searchKeys(x.keys, key)
			// keys[i] == key should route right (keys are leaf-first keys).
			if i < len(x.keys) && x.keys[i] == key {
				i++
			}
			n = x.children[i]
		}
	}
}

// searchKeys returns the first index with keys[i] >= key.
func searchKeys(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// word returns the value word of row i's column c and the kind stored
// for it.
func (t *btree) word(l *leaf, i, c int) (val *uint64, k datum.Kind) {
	base := i * t.stride
	kinds := l.slab[base+t.ncols+c/kindsPerWord]
	return &l.slab[base+c], datum.Kind(kinds >> (c % kindsPerWord * 2) & 3)
}

// setKind records k as the kind of row i's column c.
func (t *btree) setKind(l *leaf, i, c int, k datum.Kind) {
	kinds, shift := &l.slab[i*t.stride+t.ncols+c/kindsPerWord], c%kindsPerWord*2
	*kinds = *kinds&^(3<<shift) | uint64(k&3)<<shift
}

// col returns column c of row i.
func (t *btree) col(l *leaf, i, c int) datum.D {
	switch val, k := t.word(l, i, c); k {
	case datum.Int:
		return datum.D{K: k, I: int64(*val)}
	case datum.Float:
		return datum.D{K: k, F: math.Float64frombits(*val)}
	case datum.String:
		if *val == noSlot {
			return datum.D{K: k}
		}
		return datum.D{K: k, S: l.strs[*val]}
	}
	return datum.D{}
}

// unpack writes row i into out, which must have ncols elements.
func (t *btree) unpack(l *leaf, i int, out Row) {
	for c := range out {
		out[c] = t.col(l, i, c)
	}
}

// rowBytes is rowSize of row i.
func (t *btree) rowBytes(l *leaf, i int) int64 {
	var s int64
	for c := 0; c < t.ncols; c++ {
		s += t.col(l, i, c).Size()
	}
	return s
}

// eachSlot calls fn with the value word of every column of rows [from, to)
// that indexes l.strs.
func (t *btree) eachSlot(l *leaf, from, to int, fn func(val *uint64)) {
	if l.strs == nil {
		return
	}
	for i := from; i < to; i++ {
		for c := 0; c < t.ncols; c++ {
			if val, k := t.word(l, i, c); k == datum.String && *val != noSlot {
				fn(val)
			}
		}
	}
}

// pack overwrites row i with row, in place. A column that held a string
// and still does keeps its slot; one that stops holding one frees it. A
// newly opened row must be zeroed (all NULL) first.
func (t *btree) pack(l *leaf, i int, row Row) {
	for c, d := range row {
		val, held := t.word(l, i, c)
		if held == datum.String && *val != noSlot {
			if d.K == datum.String && d.S != "" {
				l.strs[*val] = d.S
				continue
			}
			l.strs[*val] = ""
		}
		switch d.K {
		case datum.Int:
			*val = uint64(d.I)
		case datum.Float:
			*val = math.Float64bits(d.F)
		case datum.String:
			*val = l.putString(d.S)
		default:
			*val = 0
		}
		t.setKind(l, i, c, d.K)
	}
}

// putString stores s in the leaf and returns its value word. The slot
// array grows only once no freed slot is left to reuse.
func (l *leaf) putString(s string) uint64 {
	if s == "" {
		return noSlot
	}
	if len(l.strs) == cap(l.strs) {
		for j, o := range l.strs {
			if o == "" {
				l.strs[j] = s
				return uint64(j)
			}
		}
	}
	l.strs = append(l.strs, s)
	return uint64(len(l.strs) - 1)
}

// insert adds the row under key in one descent, reporting whether it did:
// a key already stored is refused, and its row is left as it was.
func (t *btree) insert(key int64, row Row) bool {
	splitKey, right, inserted := t.insertNode(t.root, key, row)
	if right != nil {
		t.root = &internal{keys: []int64{splitKey}, children: []node{t.root, right}}
		t.height++
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insertNode inserts into the subtree, or refuses a key it holds; on
// child split it returns the separator key and new right sibling. A leaf
// that overflows splits in half, unless the insert continues an
// ascending run (order ids within a district, history ids within a
// client): then it splits right after the new row, and the left part
// keeps its arrays for the run to go on filling. A run that has reached
// its leaf's end moves on to a new leaf allocated at full capacity.
func (t *btree) insertNode(n node, key int64, row Row) (splitKey int64, right node, inserted bool) {
	switch x := n.(type) {
	case *leaf:
		i := searchKeys(x.keys, key)
		if i < len(x.keys) && x.keys[i] == key {
			return 0, nil, false
		}
		run := i == x.run
		t.openRow(x, i, key)
		t.pack(x, i, row)
		x.run = i + 1
		if len(x.keys) <= maxLeaf {
			return 0, nil, true
		}
		var r *leaf
		next := x.next
		switch {
		case run && i == maxLeaf:
			r = t.slice(x, i, i+1, maxLeaf+1)
			t.truncate(x, i)
			r.run, x.run = 1, -1
		case run:
			r = t.slice(x, i+1, len(x.keys), len(x.keys)-i-1)
			t.truncate(x, i+1)
		default:
			mid := len(x.keys) / 2
			r = t.slice(x, mid, len(x.keys), len(x.keys)-mid)
			// The left half moves to right-sized arrays too: no run fills
			// it, and keeping the overflowed arrays would hold twice what
			// it stores.
			*x = *t.slice(x, 0, mid, mid)
		}
		x.next, r.next = r, next
		return r.keys[0], r, true
	case *internal:
		i := searchKeys(x.keys, key)
		if i < len(x.keys) && x.keys[i] == key {
			i++
		}
		sk, r, ins := t.insertNode(x.children[i], key, row)
		if r != nil {
			x.keys = append(x.keys, 0)
			copy(x.keys[i+1:], x.keys[i:])
			x.keys[i] = sk
			x.children = append(x.children, nil)
			copy(x.children[i+2:], x.children[i+1:])
			x.children[i+1] = r
			if len(x.keys) > maxInternal {
				mid := len(x.keys) / 2
				promoted := x.keys[mid]
				rn := &internal{
					keys:     append([]int64(nil), x.keys[mid+1:]...),
					children: append([]node(nil), x.children[mid+1:]...),
				}
				x.keys = x.keys[:mid]
				x.children = x.children[:mid+1]
				return promoted, rn, ins
			}
		}
		return 0, nil, ins
	}
	panic("storage: unknown node type")
}

// openRow makes room for key at position i and leaves its row all NULL.
// Capacity doubles up to half a leaf and then goes straight to the one
// row past maxLeaf a leaf holds before it splits: a leaf's capacity goes
// 4, 8, 16, 32, 65, and a leaf that splits keeps its 65 only for a run.
func (t *btree) openRow(l *leaf, i int, key int64) {
	n := len(l.keys)
	if n == cap(l.keys) {
		c := max(2*n, 4)
		if c > maxLeaf/2 {
			c = maxLeaf + 1
		}
		l.keys = append(make([]int64, 0, c), l.keys...)
		l.slab = append(make([]uint64, 0, c*t.stride), l.slab...)
	}
	l.keys = l.keys[:n+1]
	copy(l.keys[i+1:], l.keys[i:n])
	l.keys[i] = key
	s := t.stride
	l.slab = l.slab[:(n+1)*s]
	copy(l.slab[(i+1)*s:], l.slab[i*s:n*s])
	clear(l.slab[i*s : (i+1)*s])
}

// slice copies rows [from, to) of l into a new leaf with room for c
// rows, moving their strings to slots of its own.
func (t *btree) slice(l *leaf, from, to, c int) *leaf {
	// make, not append: openRow relies on keys and slab filling up together.
	out := &leaf{
		keys: make([]int64, to-from, c),
		slab: make([]uint64, (to-from)*t.stride, c*t.stride),
		run:  -1,
	}
	copy(out.keys, l.keys[from:to])
	copy(out.slab, l.slab[from*t.stride:to*t.stride])
	n := 0
	t.eachSlot(l, from, to, func(*uint64) { n++ })
	if n > 0 {
		out.strs = make([]string, 0, n)
		t.eachSlot(out, 0, to-from, func(val *uint64) {
			out.strs = append(out.strs, l.strs[*val])
			*val = uint64(len(out.strs) - 1)
		})
	}
	return out
}

// truncate drops l's rows from n on, freeing their string slots; l keeps
// its arrays.
func (t *btree) truncate(l *leaf, n int) {
	t.eachSlot(l, n, len(l.keys), func(val *uint64) { l.strs[*val] = "" })
	l.keys = l.keys[:n]
	l.slab = l.slab[:n*t.stride]
}

// delete removes key, reporting whether it was present.
func (t *btree) delete(key int64) bool {
	l, i, ok := t.find(key)
	if !ok {
		return false
	}
	t.eachSlot(l, i, i+1, func(val *uint64) { l.strs[*val] = "" })
	if i < l.run {
		l.run--
	}
	s := t.stride
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.slab = append(l.slab[:i*s], l.slab[(i+1)*s:]...)
	t.size--
	return true
}

// runs visits, leaf by leaf in key order, the positions [from, to) whose
// keys lie in [lo, hi]; fn returning false stops the walk.
func (t *btree) runs(lo, hi int64, fn func(l *leaf, from, to int) bool) {
	for l := t.findLeaf(lo); l != nil; l = l.next {
		from, to := searchKeys(l.keys, lo), len(l.keys)
		last := to > 0 && l.keys[to-1] >= hi
		if last {
			to = searchKeys(l.keys, hi)
			if to < len(l.keys) && l.keys[to] == hi {
				to++
			}
		}
		if from < to && !fn(l, from, to) {
			return
		}
		if last {
			return
		}
	}
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

// Package storage implements the in-memory shared-nothing storage engine
// each cluster node runs: typed tables with int64 primary keys stored in a
// B+tree (ordered scans for YCSB-E style range queries), plus optional
// single-column hash indexes for secondary equality lookups.
package storage

// btree is a B+tree mapping int64 keys to row values. Leaves are linked for
// ordered range scans. Deletion removes entries from leaves without
// rebalancing (searches and scans stay correct; the tree may become less
// dense under heavy deletion, which OLTP workloads here never approach).
type btree struct {
	root   node
	height int
	size   int
}

const (
	// maxLeaf/maxInternal are split thresholds (order of the tree).
	maxLeaf     = 64
	maxInternal = 64
)

type node interface{ isNode() }

type leaf struct {
	keys []int64
	vals []Row
	next *leaf
}

type internal struct {
	// children[i] covers keys < keys[i]; children[len(keys)] covers the rest.
	keys     []int64
	children []node
}

func (*leaf) isNode()     {}
func (*internal) isNode() {}

func newBTree() *btree { return &btree{root: &leaf{}} }

// Len returns the number of stored keys.
func (t *btree) Len() int { return t.size }

// get returns the row stored under key.
func (t *btree) get(key int64) (Row, bool) {
	l := t.findLeaf(key)
	i := searchKeys(l.keys, key)
	if i < len(l.keys) && l.keys[i] == key {
		return l.vals[i], true
	}
	return nil, false
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

// set inserts or replaces the row under key, reporting whether the key was
// newly inserted.
func (t *btree) set(key int64, val Row) bool {
	splitKey, right, inserted := insertNode(t.root, key, val)
	if right != nil {
		t.root = &internal{keys: []int64{splitKey}, children: []node{t.root, right}}
		t.height++
	}
	if inserted {
		t.size++
	}
	return inserted
}

// insertNode inserts into the subtree; on child split it returns the
// separator key and new right sibling.
func insertNode(n node, key int64, val Row) (splitKey int64, right node, inserted bool) {
	switch x := n.(type) {
	case *leaf:
		i := searchKeys(x.keys, key)
		if i < len(x.keys) && x.keys[i] == key {
			x.vals[i] = val
			return 0, nil, false
		}
		x.keys = append(x.keys, 0)
		x.vals = append(x.vals, nil)
		copy(x.keys[i+1:], x.keys[i:])
		copy(x.vals[i+1:], x.vals[i:])
		x.keys[i] = key
		x.vals[i] = val
		if len(x.keys) > maxLeaf {
			mid := len(x.keys) / 2
			r := &leaf{
				keys: append([]int64(nil), x.keys[mid:]...),
				vals: append([]Row(nil), x.vals[mid:]...),
				next: x.next,
			}
			// The left half moves to right-sized arrays too: under ascending
			// keys (order ids, history ids) it never grows again, and keeping
			// the overflowed arrays would hold twice what it stores.
			x.keys = append([]int64(nil), x.keys[:mid]...)
			x.vals = append([]Row(nil), x.vals[:mid]...)
			x.next = r
			return r.keys[0], r, true
		}
		return 0, nil, true
	case *internal:
		i := searchKeys(x.keys, key)
		if i < len(x.keys) && x.keys[i] == key {
			i++
		}
		sk, r, ins := insertNode(x.children[i], key, val)
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

// delete removes key, reporting whether it was present.
func (t *btree) delete(key int64) bool {
	l := t.findLeaf(key)
	i := searchKeys(l.keys, key)
	if i >= len(l.keys) || l.keys[i] != key {
		return false
	}
	l.keys = append(l.keys[:i], l.keys[i+1:]...)
	l.vals = append(l.vals[:i], l.vals[i+1:]...)
	t.size--
	return true
}

// ascend visits keys in [lo, hi] in order; fn returning false stops the
// scan.
func (t *btree) ascend(lo, hi int64, fn func(key int64, val Row) bool) {
	l := t.findLeaf(lo)
	for l != nil {
		for i, k := range l.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !fn(k, l.vals[i]) {
				return
			}
		}
		l = l.next
	}
}

// ascendAll visits every key in order.
func (t *btree) ascendAll(fn func(key int64, val Row) bool) {
	t.ascend(minInt64, maxInt64, fn)
}

const (
	minInt64 = -1 << 63
	maxInt64 = 1<<63 - 1
)

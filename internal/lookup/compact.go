package lookup

import (
	"fmt"
	"math"
	"sort"
)

// setDict interns replica sets: each distinct (sorted, deduplicated)
// partition set is stored once and referenced by a small integer id. The
// common single-replica sets of a k-way partitioning cost k dictionary
// entries total, so per-tuple storage shrinks to the id width.
type setDict struct {
	sets    [][]int
	ids     map[string]uint32
	scratch []int
	keybuf  []byte
}

// intern canonicalises parts into an owned scratch buffer (so known sets
// cost zero allocations) and returns the set's id, adding it on first
// sight. Partition ids must be in [0, 254), as in normalise.
func (d *setDict) intern(parts []int) uint32 {
	s := append(d.scratch[:0], parts...)
	// Insertion sort + dedup: replica sets are tiny.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	j := 0
	for i, p := range s {
		if i == 0 || p != s[i-1] {
			s[j] = p
			j++
		}
	}
	s = s[:j]
	d.scratch = s
	b := d.keybuf[:0]
	for _, p := range s {
		if p < 0 || p >= MaxPartitions {
			panic(fmt.Sprintf("lookup: partition id %d out of range", p))
		}
		b = append(b, byte(p))
	}
	d.keybuf = b
	if id, ok := d.ids[string(b)]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[string]uint32)
	}
	id := uint32(len(d.sets))
	d.ids[string(b)] = id
	d.sets = append(d.sets, append([]int(nil), s...))
	return id
}

func (d *setDict) memoryBytes() int64 {
	var total int64
	for _, s := range d.sets {
		total += 16 + int64(8*len(s)) // slice header + elements
	}
	return total + int64(len(d.sets))*16 // interning map entries
}

// Compact is the dense compressed lookup table: one small set-dictionary
// id per key in a contiguous key range — 1 byte per tuple while the
// deployment has at most 255 distinct replica sets, 2 bytes up to 65535,
// 4 beyond. The range grows adaptively as keys arrive; keys too far
// outside it to justify dense storage spill to a sparse side map. This is
// the paper's App. C.1 "1 byte per tuple id" design generalised from
// single partitions to interned replica sets.
type Compact struct {
	base    int64 // key of slot 0
	width   int   // bytes per slot: 1, 2 or 4
	slots8  []uint8
	slots16 []uint16
	slots32 []uint32
	dict    setDict
	side    map[int64][]int
	numSet  int // keys stored in slots
}

// NewCompact returns an empty compact lookup table.
func NewCompact() *Compact {
	return &Compact{width: 1, side: make(map[int64][]int)}
}

// numSlots returns the current dense capacity.
func (c *Compact) numSlots() int64 {
	switch c.width {
	case 1:
		return int64(len(c.slots8))
	case 2:
		return int64(len(c.slots16))
	default:
		return int64(len(c.slots32))
	}
}

// slot reads the raw slot value: 0 = unset, v > 0 = dictionary id v-1.
func (c *Compact) slot(i int64) uint32 {
	switch c.width {
	case 1:
		return uint32(c.slots8[i])
	case 2:
		return uint32(c.slots16[i])
	default:
		return c.slots32[i]
	}
}

func (c *Compact) setSlot(i int64, v uint32) {
	switch c.width {
	case 1:
		c.slots8[i] = uint8(v)
	case 2:
		c.slots16[i] = uint16(v)
	default:
		c.slots32[i] = v
	}
}

// maxID is the largest dictionary id representable at the current width
// (one slot value is reserved for "unset").
func (c *Compact) maxID() uint32 {
	switch c.width {
	case 1:
		return 0xFF - 1
	case 2:
		return 0xFFFF - 1
	default:
		return 0xFFFFFFFF - 1
	}
}

// widen promotes the slot array to the next width so larger dictionary
// ids fit.
func (c *Compact) widen() {
	n := c.numSlots()
	if c.width == 1 {
		c.slots16 = make([]uint16, n)
		for i, v := range c.slots8 {
			c.slots16[i] = uint16(v)
		}
		c.slots8 = nil
		c.width = 2
		return
	}
	c.slots32 = make([]uint32, n)
	for i, v := range c.slots16 {
		c.slots32[i] = uint32(v)
	}
	c.slots16 = nil
	c.width = 4
}

// The dense array only serves keys comfortably inside the int64 domain;
// keys within a guard band of the extremes go to the side map so no range
// or headroom arithmetic (key+1, base+span, doubling) can overflow.
const (
	minDenseKey = math.MinInt64 + (1 << 20)
	maxDenseKey = math.MaxInt64 - (1 << 20)
)

// Set records the replica set for key.
func (c *Compact) Set(key int64, parts []int) {
	id := c.dict.intern(parts)
	for id > c.maxID() {
		c.widen()
	}
	if key < minDenseKey || key > maxDenseKey {
		c.side[key] = c.dict.sets[id]
		return
	}
	if c.numSlots() == 0 {
		c.base = key
		c.growTo(key, key+1)
	} else if key < c.base || key >= c.base+c.numSlots() {
		if !c.affordable(key) {
			c.side[key] = c.dict.sets[id]
			return
		}
		c.growTo(min64(c.base, key), max64(c.base+c.numSlots(), key+1))
	}
	i := key - c.base
	if c.slot(i) == 0 {
		c.numSet++
	}
	c.setSlot(i, id+1)
	if len(c.side) > 0 {
		delete(c.side, key)
	}
}

// affordable reports whether extending the dense range to cover key is
// worth the memory: the new span must stay within a fixed floor plus a
// multiple of the keys actually stored, so sparse outliers go to the side
// map instead of inflating the array. The span is computed in uint64 so a
// range crossing most of the int64 domain cannot wrap to a small number.
func (c *Compact) affordable(key int64) bool {
	hi := max64(c.base+c.numSlots(), key+1)
	lo := min64(c.base, key)
	span := uint64(hi) - uint64(lo) // exact unsigned difference
	return span <= uint64(1024+8*(c.numSet+len(c.side)+1))
}

// growTo extends the dense range to [newBase, newEnd), geometrically
// over-allocating in the growth direction so n in-order Sets cost O(n)
// total, and migrates any side-map keys the new range now covers.
func (c *Compact) growTo(newBase, newEnd int64) {
	oldBase, oldN := c.base, c.numSlots()
	span := newEnd - newBase
	if oldN > 0 {
		// Double in the direction of growth (bounded by affordability,
		// which the caller has already established for the requested span).
		if newEnd > oldBase+oldN && span < 2*oldN {
			newEnd = newBase + min64(2*oldN, span+oldN)
		}
		if newBase < oldBase && span < 2*oldN {
			newBase = newEnd - min64(2*oldN, span+oldN)
		}
		// Headroom must not push the range into the guard bands. The
		// requested bounds stay covered: Set guarantees base >= minDenseKey
		// and end <= maxDenseKey+1.
		if newBase < minDenseKey {
			newBase = minDenseKey
		}
		if newEnd > maxDenseKey+1 {
			newEnd = maxDenseKey + 1
		}
		span = newEnd - newBase
	}
	off := oldBase - newBase
	switch c.width {
	case 1:
		ns := make([]uint8, span)
		copy(ns[off:], c.slots8)
		c.slots8 = ns
	case 2:
		ns := make([]uint16, span)
		copy(ns[off:], c.slots16)
		c.slots16 = ns
	default:
		ns := make([]uint32, span)
		copy(ns[off:], c.slots32)
		c.slots32 = ns
	}
	c.base = newBase
	for key, parts := range c.side {
		if key >= c.base && key < c.base+span {
			delete(c.side, key)
			i := key - c.base
			if c.slot(i) == 0 {
				c.numSet++
			}
			c.setSlot(i, c.dict.intern(parts)+1)
		}
	}
}

// Trim reallocates the slot array to the exact span of stored keys,
// dropping the geometric-growth headroom and any leading/trailing unset
// slots. Called on finished tables (Compress does it automatically).
func (c *Compact) Trim() {
	n := c.numSlots()
	var lo, hi int64 = 0, n
	for lo < n && c.slot(lo) == 0 {
		lo++
	}
	for hi > lo && c.slot(hi-1) == 0 {
		hi--
	}
	if lo == 0 && hi == n {
		return
	}
	switch c.width {
	case 1:
		c.slots8 = append([]uint8(nil), c.slots8[lo:hi]...)
	case 2:
		c.slots16 = append([]uint16(nil), c.slots16[lo:hi]...)
	default:
		c.slots32 = append([]uint32(nil), c.slots32[lo:hi]...)
	}
	c.base += lo
}

// Locate returns the replica set for key.
func (c *Compact) Locate(key int64) ([]int, bool) {
	if key >= c.base && key < c.base+c.numSlots() {
		if v := c.slot(key - c.base); v != 0 {
			return c.dict.sets[v-1], true
		}
		return nil, false
	}
	p, ok := c.side[key]
	return p, ok
}

// Len returns the number of keys stored.
func (c *Compact) Len() int { return c.numSet + len(c.side) }

// MemoryBytes is dominated by the slot array: width bytes per key of
// span, plus the interned set dictionary and the sparse side map.
func (c *Compact) MemoryBytes() int64 {
	var side int64
	for _, s := range c.side {
		side += 24 + int64(8*len(s))
	}
	return c.numSlots()*int64(c.width) + c.dict.memoryBytes() + side
}

// Range implements Ranger: ascending-key enumeration of every stored key.
func (c *Compact) Range(f func(key int64, parts []int) bool) {
	sideKeys := make([]int64, 0, len(c.side))
	for k := range c.side {
		sideKeys = append(sideKeys, k)
	}
	sort.Slice(sideKeys, func(i, j int) bool { return sideKeys[i] < sideKeys[j] })
	si := 0
	n := c.numSlots()
	for si < len(sideKeys) && sideKeys[si] < c.base {
		if !f(sideKeys[si], c.side[sideKeys[si]]) {
			return
		}
		si++
	}
	for i := int64(0); i < n; i++ {
		if v := c.slot(i); v != 0 {
			if !f(c.base+i, c.dict.sets[v-1]) {
				return
			}
		}
	}
	for si < len(sideKeys) {
		if !f(sideKeys[si], c.side[sideKeys[si]]) {
			return
		}
		si++
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

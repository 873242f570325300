package lookup

import (
	"fmt"
	"math"
	"slices"
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

// intern canonicalises parts (sorted, deduplicated) into an owned scratch
// buffer, so known sets cost zero allocations, and returns the set's id,
// adding it on first sight. Partition ids must be in [0, MaxPartitions).
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

// Compact is the lookup table: one small set-dictionary id per key in a
// contiguous key range — 1 byte per tuple while the deployment has at
// most 255 distinct replica sets, 2 bytes up to 65535, 4 beyond. The
// range grows adaptively as keys arrive; keys too far outside it to
// justify dense storage go to a sparse side map of ids into the same
// dictionary. This is the paper's App. C.1 "1 byte per tuple id" design
// generalised from single partitions to interned replica sets. Trim
// finishes a table, choosing between slots and the side map for its keys.
type Compact struct {
	base    int64 // key of slot 0
	width   int   // bytes per slot: 1, 2 or 4
	slots8  []uint8
	slots16 []uint16
	slots32 []uint32
	dict    setDict
	side    map[int64]uint32 // key -> dictionary id
	numSet  int              // keys stored in slots
}

// sideEntryBytes is the estimated cost of one side-map entry: an 8-byte
// key, a 4-byte id and the map's per-entry overhead.
const sideEntryBytes = 16

// NewCompact returns an empty compact lookup table.
func NewCompact() *Compact {
	return &Compact{width: 1, side: make(map[int64]uint32)}
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

// Set records the replica set for key. A key in the side map stays
// there, so the entries of a table Trim spilled flip in O(1) instead of
// regrowing slots over the map.
func (c *Compact) Set(key int64, parts []int) {
	id := c.dict.intern(parts)
	for id > c.maxID() {
		c.widen()
	}
	if _, inSide := c.side[key]; inSide || key < minDenseKey || key > maxDenseKey {
		c.side[key] = id
		return
	}
	if c.numSlots() == 0 {
		c.base = key
		c.growTo(key, key+1)
	} else if key < c.base || key >= c.base+c.numSlots() {
		if !c.affordable(key) {
			c.side[key] = id
			return
		}
		c.growTo(min(c.base, key), max(c.base+c.numSlots(), key+1))
	}
	i := key - c.base
	if c.slot(i) == 0 {
		c.numSet++
	}
	c.setSlot(i, id+1)
}

// affordable reports whether extending the dense range to cover key is
// worth the memory: the new span must stay within a fixed floor plus a
// multiple of the keys actually stored, so sparse outliers go to the side
// map instead of inflating the array. The span is computed in uint64 so a
// range crossing most of the int64 domain cannot wrap to a small number.
func (c *Compact) affordable(key int64) bool {
	hi := max(c.base+c.numSlots(), key+1)
	lo := min(c.base, key)
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
			newEnd = newBase + min(2*oldN, span+oldN)
		}
		if newBase < oldBase && span < 2*oldN {
			newBase = newEnd - min(2*oldN, span+oldN)
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
	for key, id := range c.side {
		if key >= c.base && key < c.base+span {
			delete(c.side, key)
			i := key - c.base
			if c.slot(i) == 0 {
				c.numSet++
			}
			c.setSlot(i, id+1)
		}
	}
}

// Trim finishes a table in place. It drops the geometric-growth headroom
// and any leading/trailing unset slots, then keeps the slotted keys in
// slots only while their span costs no more than holding each of them in
// the side map; otherwise it moves them there, so a sparse table, such as
// the exceptions to a table's rules, ends as a map. Either way the table
// ends no larger, by MemoryBytes, than the other layout, and it keeps
// accepting Set.
func (c *Compact) Trim() {
	n := c.numSlots()
	var lo, hi int64 = 0, n
	for lo < n && c.slot(lo) == 0 {
		lo++
	}
	for hi > lo && c.slot(hi-1) == 0 {
		hi--
	}
	if (hi-lo)*int64(c.width) > sideEntryBytes*int64(c.numSet) {
		for i := lo; i < hi; i++ {
			if v := c.slot(i); v != 0 {
				c.side[c.base+i] = v - 1
			}
		}
		lo, hi, c.numSet = 0, 0, 0
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
	id, ok := c.side[key]
	if !ok {
		return nil, false
	}
	return c.dict.sets[id], true
}

// Len returns the number of keys stored.
func (c *Compact) Len() int { return c.numSet + len(c.side) }

// MemoryBytes estimates the resident size: width bytes per slot of the
// dense span, sideEntryBytes per side-map key, and the set dictionary.
func (c *Compact) MemoryBytes() int64 {
	return c.numSlots()*int64(c.width) + int64(len(c.side))*sideEntryBytes + c.dict.memoryBytes()
}

// Range enumerates every stored key in ascending order.
func (c *Compact) Range(f func(key int64, parts []int) bool) {
	side := make([]int64, 0, len(c.side))
	for k := range c.side {
		side = append(side, k)
	}
	slices.Sort(side)
	emit := func(keys []int64) bool {
		for _, k := range keys {
			if !f(k, c.dict.sets[c.side[k]]) {
				return false
			}
		}
		return true
	}
	// No side key falls inside the dense range.
	below, _ := slices.BinarySearch(side, c.base)
	if !emit(side[:below]) {
		return
	}
	for i := int64(0); i < c.numSlots(); i++ {
		if v := c.slot(i); v != 0 && !f(c.base+i, c.dict.sets[v-1]) {
			return
		}
	}
	emit(side[below:])
}

// Package lookup implements the lookup tables behind fine-grained
// (per-tuple) partitioning (§4.2, App. C.1): HashIndex, the general
// in-memory map a table is built in, and Compact, dense set-dictionary
// ids at 1–2 bytes per tuple, bundled per table behind Router
// (router.go), whose Compress keeps each finished table in the smaller
// of the two. Beside an explanation's rules a table holds only the keys
// whose placement the rules get wrong (partition.Lookup places the rest),
// so a sparse map of exceptions is as common as a dense table.
package lookup

import (
	"fmt"
	"sort"
)

// MaxPartitions is the largest partition count a lookup table can
// address: replica sets are stored one byte per partition id, with the
// two top values reserved, so ids run 0..MaxPartitions-1.
const MaxPartitions = 254

// Table maps tuple keys to the set of partitions storing the tuple.
type Table interface {
	// Set records the replica set for a key. Partition ids must be below
	// MaxPartitions. The table keeps a copy, never parts itself, so a
	// caller may reuse the slice once Set returns.
	Set(key int64, parts []int)
	// Locate returns the replica set for a key; ok=false when the key is
	// unknown (the caller applies its default policy, e.g. replicate-
	// everywhere for read-mostly workloads as in the Epinions experiment).
	Locate(key int64) (parts []int, ok bool)
	// MemoryBytes estimates the table's resident size, the metric that
	// drives the paper's "1 byte per tuple id" capacity analysis.
	MemoryBytes() int64
}

// HashIndex is the most general lookup table: an in-memory map. Replica
// sets are interned so replicated tuples cost one pointer-sized id each.
type HashIndex struct {
	m      map[int64]uint32
	sets   [][]int
	setIDs map[string]uint32
}

// NewHashIndex returns an empty hash-index lookup table.
func NewHashIndex() *HashIndex {
	return &HashIndex{m: make(map[int64]uint32), setIDs: make(map[string]uint32)}
}

func setKey(parts []int) string {
	b := make([]byte, len(parts))
	for i, p := range parts {
		b[i] = byte(p)
	}
	return string(b)
}

// Set records the replica set for key.
func (h *HashIndex) Set(key int64, parts []int) {
	parts = normalise(parts)
	k := setKey(parts)
	id, ok := h.setIDs[k]
	if !ok {
		id = uint32(len(h.sets))
		h.setIDs[k] = id
		h.sets = append(h.sets, parts)
	}
	h.m[key] = id
}

// Locate returns the replica set for key.
func (h *HashIndex) Locate(key int64) ([]int, bool) {
	id, ok := h.m[key]
	if !ok {
		return nil, false
	}
	return h.sets[id], true
}

// MemoryBytes estimates map overhead at ~16 bytes/entry.
func (h *HashIndex) MemoryBytes() int64 {
	var sets int64
	for _, s := range h.sets {
		sets += int64(8 * len(s))
	}
	return int64(len(h.m))*16 + sets
}

// Len returns the number of keys stored.
func (h *HashIndex) Len() int { return len(h.m) }

// Range implements Ranger: ascending-key enumeration (the map keys are
// collected and sorted first).
func (h *HashIndex) Range(f func(key int64, parts []int) bool) {
	keys := make([]int64, 0, len(h.m))
	for k := range h.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if !f(k, h.sets[h.m[k]]) {
			return
		}
	}
}

// normalise sorts and deduplicates a partition set.
func normalise(parts []int) []int {
	out := append([]int(nil), parts...)
	sort.Ints(out)
	j := 0
	for i, p := range out {
		if i == 0 || p != out[i-1] {
			out[j] = p
			j++
		}
	}
	out = out[:j]
	for _, p := range out {
		if p < 0 || p >= MaxPartitions {
			panic(fmt.Sprintf("lookup: partition id %d out of range", p))
		}
	}
	return out
}

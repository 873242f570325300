// Package lookup implements the lookup tables behind fine-grained
// (per-tuple) partitioning (§4.2, App. C.1). Compact is the one table:
// an interned replica-set id per key, held in dense slots at 1–2 bytes
// per tuple or, for keys too sparse for slots, in a side map. Router
// (router.go) bundles one per table, and its Compress finishes each built
// table in whichever layout is smaller. Beside an explanation's rules a
// table holds only the keys whose placement the rules get wrong
// (partition.Lookup places the rest), so a sparse table of exceptions is
// as common as a dense one.
package lookup

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

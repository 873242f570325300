// Package graph builds the Schism workload graph (§4.1): one node per
// tuple (or per coalesced tuple group), clique edges between tuples
// co-accessed by a transaction, and optional star-shaped replication
// expansion that lets the min-cut partitioner trade replication against
// distributed transactions.
//
// Build produces that classic clique expansion; BuildHyper produces the
// hypergraph-native alternative — one net per transaction plus
// replication nets, linear in total access-set size where cliques are
// quadratic, partitioned on the connectivity metric by metis.PartHKway
// (see DESIGN.md "Hypergraph partitioning"). Both share the same trace
// front half and node layout, so every placement translation works on
// either and the clique path remains the differential reference.
//
// Of the §5.1 graph-size heuristics the package implements transaction
// sampling, tuple coalescing and star-shaped replication (DESIGN.md
// "Pipeline" says why the others were dropped). Options are validated up
// front; an out-of-range value fails with a typed *OptionsError.
//
// Construction is allocation-lean and parallel (see DESIGN.md): the trace
// is interned into dense tuple ids once, per-transaction deduplication
// uses epoch-stamped scratch arrays instead of maps, and coalescing
// signatures are 64-bit hashes verified on collision. Build writes the
// CSR directly, row by row, with GOMAXPROCS goroutines owning contiguous
// node ranges — no edge list exists in between; BuildHyper shards pin
// generation over contiguous transaction ranges. Every output slot has
// exactly one writer either way, so the result is byte-identical to a
// single-threaded build.
package graph

import (
	"encoding/binary"
	"math/rand"
	"slices"

	"schism/internal/metis"
	"schism/internal/workload"
)

// Options configure graph construction.
type Options struct {
	// Replication enables the star-shaped replicated-tuple expansion
	// (Fig. 3). A tuple accessed by n >= 2 transactions becomes n replica
	// nodes around a centre node; replication edges weigh the tuple's
	// update count.
	Replication bool
	// TxnSampleRate keeps each transaction with this probability;
	// values <= 0 or >= 1 disable transaction sampling.
	TxnSampleRate float64
	// Coalesce merges tuples that are always accessed together by exactly
	// the same transactions into a single node (lossless).
	Coalesce bool
	// Seed drives sampling decisions.
	Seed int64
}

// Node describes what one graph node represents.
type Node struct {
	// Group is the node's (coalesced) tuple group; Graph.GroupMembers
	// lists its tuples.
	Group int32
	// Center marks the hub of a replication star.
	Center bool
	// Txn is the trace index of the transaction this replica serves,
	// or -1 for centre and unexploded nodes.
	Txn int32
}

// Graph is the built workload graph plus the metadata needed to translate a
// node partitioning back into a tuple placement.
type Graph struct {
	// CSR is the clique partitioner input Build fills: what the
	// offline pipeline cuts by default and the hypergraph's differential
	// oracle. Nil for hypergraph builds (BuildHyper).
	CSR *metis.Graph
	// HG is the hypergraph partitioner input BuildHyper fills: one net
	// per transaction over its distinct group nodes, plus replication
	// nets. Every live cycle cuts it and ProjectLabels walks it. Nil for
	// clique builds (Build).
	HG *metis.HGraph
	// Nodes maps node id -> provenance. Only Build fills it (its row
	// writer reads it); a hypergraph's node layout is groupBase.
	Nodes []Node
	// Members lists every group's member tuples as dense ids, ascending:
	// group gi's are Members[MemberOff[gi]:MemberOff[gi+1]] (see
	// GroupMembers).
	Members   []int32
	MemberOff []int32
	// Intern assigns the dense tuple ids used by GroupOf, Members and
	// DenseAssignments; ids are in order of first access in Compact.
	Intern *workload.Interner
	// GroupOf maps dense tuple id -> group.
	GroupOf []int32
	// Compact is the interned trace the graph represents: the input's
	// interned form after transaction sampling.
	Compact *workload.Compact

	// groupBase[g] is the first node id of group g; exploded groups occupy
	// groupBase[g] (centre) through groupBase[g]+numReplicas(g).
	groupBase []int32
	numNodes  int32 // groupBase's layout covers nodes [0, numNodes)
	// exploded marks groups expanded into replication stars.
	exploded []bool
	// accOff[g]/accCount[g] locate group g's accessor list within txnList/
	// flagList: the transactions touching the group, ascending, with
	// read/write flag bits.
	accOff   []int32
	accCount []int32
	txnList  []int32
	flagList []uint8

	// Build scratch, kept with the graph so that RebuildHyper reuses it:
	// buildCore's per-tuple epochs, counts and offsets, its coalescing
	// index and group representatives, buildPins' per-worker dedup
	// stamps. labels is the array ProjectLabels last returned and spare
	// the previous build's, which the next ProjectLabels reuses.
	last, cnt, tupOff []int32
	rep, next         []int32
	byHash            map[uint64]int32
	seen              [][]int32
	labels, spare     []int32
}

const (
	flagRead  uint8 = 1 << 0
	flagWrite uint8 = 1 << 1
)

// maxWorkers overrides row- and pin-generation parallelism; 0 means
// runtime.GOMAXPROCS(0). Tests set it to check that worker count never
// changes the built graph.
var maxWorkers = 0

// GroupMembers returns group gi's member tuples as dense ids, ascending.
func (g *Graph) GroupMembers(gi int32) []int32 {
	return g.Members[g.MemberOff[gi]:g.MemberOff[gi+1]]
}

// groupTxns returns the ascending transaction ids accessing group gi.
func (g *Graph) groupTxns(gi int32) []int32 {
	return g.txnList[g.accOff[gi] : g.accOff[gi]+g.accCount[gi]]
}

// groupFlags returns the per-accessor read/write flags for group gi,
// parallel to groupTxns.
func (g *Graph) groupFlags(gi int32) []uint8 {
	return g.flagList[g.accOff[gi] : g.accOff[gi]+g.accCount[gi]]
}

// isExploded reports whether group gi was expanded into a replication star.
func (g *Graph) isExploded(gi int32) bool { return g.exploded[gi] }

// numReplicas returns the number of replica nodes of an exploded group
// (0 for plain groups).
func (g *Graph) numReplicas(gi int32) int {
	if !g.exploded[gi] {
		return 0
	}
	return int(g.accCount[gi])
}

// nodeFor returns the node serving transaction ti's access to group gi:
// the group's single node, or the replica dedicated to ti. Replica ranks
// are recovered by binary search in the group's ascending accessor list.
func (g *Graph) nodeFor(gi, ti int32) int32 {
	base := g.groupBase[gi]
	if !g.exploded[gi] {
		return base
	}
	txns := g.groupTxns(gi)
	lo, hi := 0, len(txns)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if txns[mid] < ti {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return base + 1 + int32(lo)
}

// Build constructs the clique workload graph for a trace. It returns a
// typed *OptionsError for invalid options, and an error wrapping
// metis.ErrTooLarge when the adjacency rows would overflow the int32 CSR
// index space or their total weight int32 (BuildHyper, linear in
// access-set size, usually still fits).
func Build(tr *workload.Trace, opts Options) (*Graph, error) {
	g := new(Graph)
	nwgt, err := g.buildCore(tr, opts)
	if err != nil {
		return nil, err
	}
	g.Nodes = g.nodeTable()
	g.CSR, err = g.buildCSR(nwgt)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// buildCore is the shared front half of Build and BuildHyper: interning,
// transaction sampling on the interned trace, accessor lists, coalescing,
// node layout, and node weights. Only the final representation — clique
// edges vs transaction nets — differs between the two entry points, so they
// translate node partitionings back to tuples identically.
//
// It writes into g's arrays (see regrow): a graph built before, by
// BuildHyper or RebuildHyper, is rebuilt in place, node weights included
// (its hypergraph's NWgt), and an empty one allocates every array at its
// exact size.
func (g *Graph) buildCore(tr *workload.Trace, opts Options) ([]int64, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// Intern the trace (a shared memo, or a compact-only trace's own
	// form): everything after indexes slices by dense tuple id.
	// Transaction sampling then runs on that form.
	c := workload.CompactTrace(tr)
	if opts.TxnSampleRate > 0 && opts.TxnSampleRate < 1 {
		c = workload.SampleTxns(c, opts.TxnSampleRate, rand.New(rand.NewSource(opts.Seed)))
	}
	numTuples := c.NumTuples()
	numTxns := c.NumTxns()

	g.Compact, g.Intern = c, c.In
	g.numNodes = 0
	if g.labels != nil {
		g.spare, g.labels = g.labels, nil
	}

	// Per-tuple accessor lists (tuple -> ascending txn ids + read/write
	// flags), built with two epoch-stamped passes: count, then fill.
	g.last = regrow(g.last, numTuples)
	last := g.last
	for i := range last {
		last[i] = -1
	}
	g.cnt = regrow(g.cnt, numTuples)
	cnt := g.cnt
	clear(cnt)
	for ti := 0; ti < numTxns; ti++ {
		for _, e := range c.Txn(ti) {
			d := int32(e &^ workload.WriteBit)
			if last[d] != int32(ti) {
				last[d] = int32(ti)
				cnt[d]++
			}
		}
	}
	g.tupOff = regrow(g.tupOff, numTuples+1)
	tupOff := g.tupOff
	tupOff[0] = 0
	for d := 0; d < numTuples; d++ {
		tupOff[d+1] = tupOff[d] + cnt[d]
	}
	g.txnList = regrow(g.txnList, int(tupOff[numTuples]))
	g.flagList = regrow(g.flagList, int(tupOff[numTuples]))
	copy(cnt, tupOff[:numTuples]) // cnt becomes the fill cursor
	for i := range last {
		last[i] = -1
	}
	for ti := 0; ti < numTxns; ti++ {
		for _, e := range c.Txn(ti) {
			d := int32(e &^ workload.WriteBit)
			f := flagRead
			if e&workload.WriteBit != 0 {
				f = flagWrite
			}
			if last[d] != int32(ti) {
				last[d] = int32(ti)
				g.txnList[cnt[d]] = int32(ti)
				g.flagList[cnt[d]] = f
				cnt[d]++
			} else {
				g.flagList[cnt[d]-1] |= f
			}
		}
	}

	// Group tuples. With coalescing, tuples sharing an identical access
	// signature (same transactions, same write pattern) share a group;
	// signatures are 64-bit hashes verified element-wise on collision.
	// Groups are numbered in first-access order either way.
	g.GroupOf = regrow(g.GroupOf, numTuples)
	var rep []int32 // representative dense tuple per group
	if opts.Coalesce {
		sigTxns := func(d int32) []int32 { return g.txnList[tupOff[d]:tupOff[d+1]] }
		sigFlags := func(d int32) []uint8 { return g.flagList[tupOff[d]:tupOff[d+1]] }
		sigEqual := func(a, b int32) bool {
			ta, tb := sigTxns(a), sigTxns(b)
			if len(ta) != len(tb) {
				return false
			}
			fa, fb := sigFlags(a), sigFlags(b)
			for i := range ta {
				if ta[i] != tb[i] || fa[i]&flagWrite != fb[i]&flagWrite {
					return false
				}
			}
			return true
		}
		// byHash[h] is the newest group with signature hash h, and next[gi]
		// the next older one with gi's hash (-1 ends the chain). Groups have
		// distinct signatures, so at most one on a chain matches and the
		// chain's order cannot change the grouping.
		if g.byHash == nil {
			g.byHash = make(map[uint64]int32)
		} else {
			clear(g.byHash)
		}
		byHash := g.byHash
		rep = g.rep[:0]
		next := g.next[:0]
		for d := int32(0); int(d) < numTuples; d++ {
			h := sigHash(sigTxns(d), sigFlags(d))
			head, ok := byHash[h]
			if !ok {
				head = -1
			}
			gi := int32(-1)
			for cand := head; cand >= 0; cand = next[cand] {
				if sigEqual(rep[cand], d) {
					gi = cand
					break
				}
			}
			if gi < 0 {
				gi = int32(len(rep))
				rep = append(rep, d)
				next = append(next, head)
				byHash[h] = gi
			}
			g.GroupOf[d] = gi
		}
		g.next = next
	} else {
		rep = regrow(g.rep, numTuples)
		for d := range g.GroupOf {
			g.GroupOf[d] = int32(d)
			rep[d] = int32(d)
		}
	}
	g.rep = rep
	numGroups := len(rep)

	// Group accessor lists alias the representative tuple's list.
	g.accOff = regrow(g.accOff, numGroups)
	g.accCount = regrow(g.accCount, numGroups)
	for gi, d := range rep {
		g.accOff[gi] = tupOff[d]
		g.accCount[gi] = tupOff[d+1] - tupOff[d]
	}

	// Group membership: dense ids, counting-sorted by group, so each
	// group's members stay ascending.
	g.MemberOff = regrow(g.MemberOff, numGroups+1)
	clear(g.MemberOff)
	g.Members = regrow(g.Members, numTuples)
	for _, gi := range g.GroupOf {
		g.MemberOff[gi+1]++
	}
	for gi := 0; gi < numGroups; gi++ {
		g.MemberOff[gi+1] += g.MemberOff[gi]
	}
	fill := cnt[:numGroups] // the accessor lists' cursor, free again
	copy(fill, g.MemberOff[:numGroups])
	for d, gi := range g.GroupOf {
		g.Members[fill[gi]] = int32(d)
		fill[gi]++
	}

	// Lay out nodes: a single node per group, or centre + one replica per
	// accessing transaction for exploded groups.
	g.groupBase = regrow(g.groupBase, numGroups)
	g.exploded = regrow(g.exploded, numGroups)
	for gi := 0; gi < numGroups; gi++ {
		g.groupBase[gi] = g.numNodes
		g.exploded[gi] = opts.Replication && g.accCount[gi] >= 2
		if g.exploded[gi] {
			g.numNodes += g.accCount[gi] + 1
		} else {
			g.numNodes++
		}
	}

	// Node weights (§4.1's workload balance). A group's size is its
	// member count. A star's centre weighs nothing and each replica the
	// group's size; a plain node weighs its size times its accessors.
	var nwgt []int64
	if g.HG != nil {
		nwgt = g.HG.NWgt
	}
	nwgt = regrow(nwgt, int(g.numNodes))
	clear(nwgt)
	for gi := int32(0); int(gi) < numGroups; gi++ {
		size := int64(g.MemberOff[gi+1] - g.MemberOff[gi])
		base := g.groupBase[gi]
		if g.exploded[gi] {
			for ri := int32(1); ri <= g.accCount[gi]; ri++ {
				nwgt[base+ri] = size
			}
		} else {
			nwgt[base] = int64(g.accCount[gi]) * size
		}
	}

	return nwgt, nil
}

// regrow returns b with length n for a build to overwrite: an array that
// never had room (an empty graph's) is allocated at exactly n, one from an
// earlier build is resliced when big enough and otherwise regrown with a
// quarter's headroom, like metis.Solver's scratch, so that the next
// window a little larger than this one fits. Retained elements keep their
// old values; callers write or clear every one they read.
func regrow[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	if cap(b) == 0 {
		return make([]T, n)
	}
	return make([]T, n, n+n/4)
}

// nodeTable returns every node's provenance: what Build's row writer
// reads, and nothing on the hypergraph path does.
func (g *Graph) nodeTable() []Node {
	nodes := make([]Node, g.numNodes)
	for gi := int32(0); int(gi) < len(g.groupBase); gi++ {
		base := g.groupBase[gi]
		if !g.exploded[gi] {
			nodes[base] = Node{Group: gi, Txn: -1}
			continue
		}
		nodes[base] = Node{Group: gi, Center: true, Txn: -1}
		for ri, ti := range g.groupTxns(gi) {
			nodes[base+1+int32(ri)] = Node{Group: gi, Txn: ti}
		}
	}
	return nodes
}

// sigHash is a 64-bit FNV-1a-style hash of a tuple's access signature:
// the accessing transactions and their write flags. Collisions are
// resolved by exact comparison, so the hash only affects speed.
func sigHash(txns []int32, flags []uint8) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i, ti := range txns {
		v := uint64(uint32(ti)) << 1
		if flags[i]&flagWrite != 0 {
			v |= 1
		}
		h ^= v
		h *= prime64
		h ^= h >> 29
	}
	return h
}

// Partition runs the min-cut partitioner over the graph: connectivity-
// metric hypergraph partitioning (metis.PartHKway) for BuildHyper
// graphs, edge-cut clique partitioning (metis.PartKway) otherwise. The
// returned cost is the corresponding objective value.
func (g *Graph) Partition(k int, opts metis.Options) ([]int32, int64, error) {
	if g.HG != nil {
		return metis.PartHKway(g.HG, k, opts)
	}
	return metis.PartKway(g.CSR, k, opts)
}

// groupSets returns each group's sorted distinct partition set under the
// node partitioning. Groups with equal sets share one slice, capped at its
// length: a plain group takes its partition's singleton, made once per
// label, and an exploded group's set is interned by its labels, so the
// call allocates per distinct set, not per group.
func (g *Graph) groupSets(parts []int32) [][]int {
	sets := make([][]int, len(g.groupBase))
	var singles [][]int // singles[p] is {p}, made on first use
	single := func(p int) []int {
		for len(singles) <= p {
			singles = append(singles, nil)
		}
		if singles[p] == nil {
			singles[p] = []int{p}
		}
		return singles[p]
	}
	var interned map[string][]int
	var set []int
	var key []byte
	for gi := range g.groupBase {
		base := g.groupBase[gi]
		if !g.exploded[gi] {
			sets[gi] = single(int(parts[base]))
			continue
		}
		set = set[:0]
		for ri := int32(0); ri < g.accCount[gi]; ri++ {
			if p := int(parts[base+1+ri]); !slices.Contains(set, p) {
				set = append(set, p)
			}
		}
		if len(set) == 1 {
			sets[gi] = single(set[0])
			continue
		}
		slices.Sort(set)
		key = key[:0]
		for _, p := range set {
			key = binary.AppendUvarint(key, uint64(p))
		}
		s, ok := interned[string(key)]
		if !ok {
			if interned == nil {
				interned = make(map[string][]int)
			}
			s = slices.Clip(slices.Clone(set))
			interned[string(key)] = s
		}
		sets[gi] = s
	}
	return sets
}

// DenseAssignments translates a node partitioning into per-tuple replica
// sets indexed by the graph's dense tuple ids (Graph.Intern): for an
// exploded tuple, the distinct partitions of its replica nodes; for a
// plain tuple, its single node's partition. Partition lists are sorted.
//
// Tuples with equal sets share one slice, whether or not they share a
// group, so the result costs one allocation per distinct set. Treat the
// sets as read-only: replace an entry rather than editing it, and rename
// labels only through partition.RelabelAssignments, which rewrites each
// shared slice exactly once.
func (g *Graph) DenseAssignments(parts []int32) [][]int {
	sets := g.groupSets(parts)
	out := make([][]int, len(g.GroupOf))
	for d, gi := range g.GroupOf {
		out[d] = sets[gi]
	}
	return out
}

// DenseAssignmentsFor aligns a node partitioning with an arbitrary compact
// trace's interner: out[d] is the replica set of c's dense tuple d, or nil
// when the graph does not represent that tuple (the caller's default
// policy applies); sets are shared as in DenseAssignments. Used to
// evaluate a partitioning over a trace other than the one the graph was
// built from without hashing TupleIDs per access.
func (g *Graph) DenseAssignmentsFor(c *workload.Compact, parts []int32) [][]int {
	sets := g.groupSets(parts)
	out := make([][]int, c.NumTuples())
	for d, id := range c.In.Tuples() {
		if gd, ok := g.Intern.Lookup(id); ok {
			out[d] = sets[g.GroupOf[gd]]
		}
	}
	return out
}

// NumNodes returns the number of graph nodes (Table 1 "Nodes").
func (g *Graph) NumNodes() int {
	if g.HG != nil {
		return g.HG.NumNodes()
	}
	return g.CSR.NumNodes()
}

// NumEdges returns the number of distinct undirected edges (Table 1
// "Edges") for clique builds, or the number of nets for hypergraph
// builds.
func (g *Graph) NumEdges() int {
	if g.HG != nil {
		return g.HG.NumNets()
	}
	return g.CSR.NumEdges()
}

// PartWeights returns the total node weight in each of k partitions.
func (g *Graph) PartWeights(parts []int32, k int) []int64 {
	if g.HG != nil {
		return g.HG.PartWeights(parts, k)
	}
	return g.CSR.PartWeights(parts, k)
}

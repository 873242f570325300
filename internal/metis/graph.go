// Package metis is a pure-Go multilevel k-way graph partitioner in the
// style of METIS (Karypis & Kumar, SIAM J. Sci. Comput. 1998): heavy-edge
// matching coarsening, greedy-graph-growing recursive-bisection initial
// partitioning, and Fiduccia–Mattheyses-style boundary refinement during
// uncoarsening. It minimises the weighted edge cut subject to a balance
// constraint on partition weights.
//
// The package replaces the external METIS 5 library the Schism paper uses
// (§4.2). It operates on undirected graphs in compressed sparse row form
// with integer node and edge weights. CSR assembly from edge lists
// (NewGraph) is map-free: packed (u,v) keys are ordered by two stable
// counting-sort passes and duplicates fold in one linear scan. The
// workload graph (graph.Build) and the coarsening levels write their CSR
// directly, so NewGraph serves the coarsest-hypergraph clique expansion
// (hcoarsen.go) and tests (see DESIGN.md). CSR capacity is
// int32-indexed; NewGraph, NewHGraph and CheckCSRCapacity reject inputs
// past that limit with ErrTooLarge instead of silently wrapping.
//
// Edge weights are int32 at every coarse level — 8 bytes per directed
// adjacency entry with the neighbour id — and may be uint16 in the input
// graph when its builder knows they fit (EWgt16, 6 bytes an entry). Both
// forms keep one invariant: a graph's total directed edge weight fits
// int32. A coarse edge's weight is a sum of fine ones, so the invariant
// bounds every level of the hierarchy; graph.Build and NewGraph check it
// (CheckEdgeWeight), and every sum the partitioner forms from weights
// (gains, cuts, degrees, contraction folds) is int64.
//
// PartHKway is the hypergraph counterpart (hgraph.go, hcoarsen.go,
// hrefine.go, hkway.go): the same multilevel driver (multilevel.go) over
// pin lists, minimising the connectivity metric Σ w(e)·(λ(e)−1) — the
// number of extra partitions each net spans — which prices distributed
// transactions and replication exactly where the clique expansion can
// only approximate them (see DESIGN.md "Hypergraph partitioning").
package metis

import (
	"errors"
	"fmt"
	"math"
)

// Graph is an undirected graph in CSR (adjacency) form. Every edge {u,v}
// must appear twice: v in u's adjacency list and u in v's, with equal
// weights. Self-loops are not allowed.
type Graph struct {
	// XAdj has length NumNodes()+1; the neighbours of node i are
	// Adj[XAdj[i]:XAdj[i+1]] with weights EWgt[XAdj[i]:XAdj[i+1]].
	XAdj []int32
	Adj  []int32
	// EWgt holds per-directed-edge weights; nil means all edges weigh 1.
	// Their sum over all entries must fit int32 (CheckEdgeWeight), which
	// keeps every coarse weight folded from them in range too.
	EWgt []int32
	// EWgt16 is EWgt's two-byte form, for a builder whose weights all fit
	// uint16: it halves the weight array of a large input graph. At most
	// one of EWgt and EWgt16 is set; coarse levels always use EWgt.
	EWgt16 []uint16
	// NWgt holds per-node weights; nil means all nodes weigh 1.
	NWgt []int64
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.XAdj) == 0 {
		return 0
	}
	return len(g.XAdj) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// NodeWeight returns the weight of node i (1 if NWgt is nil).
func (g *Graph) NodeWeight(i int32) int64 {
	if g.NWgt == nil {
		return 1
	}
	return g.NWgt[i]
}

// edgeWeight returns the weight of the directed edge at adjacency index j.
func (g *Graph) edgeWeight(j int32) int64 { return g.weights().at(int(j)) }

// edgeWeights reads a graph's per-entry weights in whichever form holds
// them; the partitioner's inner loops take it once per graph.
type edgeWeights struct {
	w32 []int32
	w16 []uint16
}

func (g *Graph) weights() edgeWeights { return edgeWeights{g.EWgt, g.EWgt16} }

// at is the weight of adjacency entry j (1 when the graph has none).
func (w edgeWeights) at(j int) int64 {
	switch {
	case w.w32 != nil:
		return int64(w.w32[j])
	case w.w16 != nil:
		return int64(w.w16[j])
	}
	return 1
}

// TotalNodeWeight returns the sum of all node weights.
func (g *Graph) TotalNodeWeight() int64 {
	if g.NWgt == nil {
		return int64(g.NumNodes())
	}
	var tot int64
	for _, w := range g.NWgt {
		tot += w
	}
	return tot
}

// Validate checks structural invariants: monotone XAdj, in-range sorted
// adjacency, no self-loops or duplicate neighbours, symmetric edges with
// matching weights, and a total edge weight within CheckEdgeWeight's limit.
//
// Adjacency lists sorted by ascending neighbour id are an invariant of
// every graph this package builds (NewGraph and level contraction both
// emit sorted rows); Validate enforces it, which lets the symmetry check
// run as a cursor-based merge scan in O(N+E) instead of through an O(E)
// edge map: when the outer loop visits directed edge (u,v) — u ascending
// — the matching (v,u) must sit exactly at v's cursor, because v's row
// is sorted by the same order the cursor consumes it in.
func (g *Graph) Validate() error {
	n := g.NumNodes()
	if len(g.XAdj) > 0 && g.XAdj[0] != 0 {
		return errors.New("metis: XAdj[0] != 0")
	}
	for i := 0; i < n; i++ {
		if g.XAdj[i+1] < g.XAdj[i] {
			return fmt.Errorf("metis: XAdj not monotone at %d", i)
		}
	}
	if n > 0 && int(g.XAdj[n]) != len(g.Adj) {
		return fmt.Errorf("metis: XAdj[n]=%d != len(Adj)=%d", g.XAdj[n], len(g.Adj))
	}
	if g.EWgt != nil && len(g.EWgt) != len(g.Adj) {
		return fmt.Errorf("metis: len(EWgt)=%d != len(Adj)=%d", len(g.EWgt), len(g.Adj))
	}
	if g.EWgt16 != nil && (g.EWgt != nil || len(g.EWgt16) != len(g.Adj)) {
		return fmt.Errorf("metis: EWgt16 with EWgt set or len(EWgt16)=%d != len(Adj)=%d", len(g.EWgt16), len(g.Adj))
	}
	if g.NWgt != nil && len(g.NWgt) != n {
		return fmt.Errorf("metis: len(NWgt)=%d != n=%d", len(g.NWgt), n)
	}
	var total int64
	for _, w := range g.EWgt {
		total += int64(w)
	}
	for _, w := range g.EWgt16 {
		total += int64(w)
	}
	if err := CheckEdgeWeight(total); err != nil {
		return err
	}
	cursor := make([]int32, n)
	for i := 0; i < n; i++ {
		cursor[i] = g.XAdj[i]
	}
	for u := int32(0); int(u) < n; u++ {
		prev := int32(-1)
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			v := g.Adj[j]
			if v == u {
				return fmt.Errorf("metis: self-loop at node %d", u)
			}
			if v < 0 || int(v) >= n {
				return fmt.Errorf("metis: adjacency out of range: %d", v)
			}
			if v <= prev {
				return fmt.Errorf("metis: adjacency of node %d not sorted (%d after %d)", u, v, prev)
			}
			prev = v
			c := cursor[v]
			if c >= g.XAdj[v+1] || g.Adj[c] != u {
				return fmt.Errorf("metis: asymmetric edge {%d,%d}", u, v)
			}
			if g.edgeWeight(c) != g.edgeWeight(j) {
				return fmt.Errorf("metis: edge {%d,%d} weight mismatch (%d vs %d)",
					u, v, g.edgeWeight(j), g.edgeWeight(c))
			}
			cursor[v] = c + 1
		}
	}
	for v := 0; v < n; v++ {
		if cursor[v] != g.XAdj[v+1] {
			return fmt.Errorf("metis: asymmetric edge (unmatched entries at node %d)", v)
		}
	}
	return nil
}

// EdgeCut returns the total weight of edges whose endpoints are in
// different partitions. Each undirected edge {u,v} is counted once via
// its u < v direction (every edge appears in both adjacency lists), so
// no halving of a double count is needed.
func (g *Graph) EdgeCut(parts []int32) int64 {
	var cut int64
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		pu := parts[u]
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			v := g.Adj[j]
			if v > u && parts[v] != pu {
				cut += g.edgeWeight(j)
			}
		}
	}
	return cut
}

// PartWeights returns the total node weight in each of k partitions.
func (g *Graph) PartWeights(parts []int32, k int) []int64 {
	w := make([]int64, k)
	for i := 0; i < g.NumNodes(); i++ {
		w[parts[i]] += g.NodeWeight(int32(i))
	}
	return w
}

// BuilderEdge is an undirected weighted edge used by NewGraph.
type BuilderEdge struct {
	U, V   int32
	Weight int64
}

// ErrTooLarge reports an input whose CSR arrays would overflow int32:
// more than 2^31-1 adjacency or pin entries, or a total edge weight past
// 2^31-1. Before the guard existed, xadj offsets silently wrapped negative
// on such inputs; now construction fails loudly and callers can fall back
// to sampling or the hypergraph path (which is linear in access-set size).
var ErrTooLarge = errors.New("metis: graph exceeds int32 CSR capacity")

// maxCSREntries bounds the folded directed-adjacency (and hypergraph
// pin) count so int32 offsets cannot wrap. Tests lower it to exercise
// the boundary without allocating multi-gigabyte inputs.
var maxCSREntries = int64(math.MaxInt32)

// CheckCSRCapacity returns ErrTooLarge (wrapped) when `entries` directed
// adjacency or pin entries would overflow the int32 CSR index space.
// Graph builders call it with their raw entry count before allocating
// edge or pin arrays, so an oversized workload fails with a clear error
// up front instead of attempting a multi-gigabyte allocation and then
// wrapping offsets. The raw count is an upper bound on the folded count,
// so the check is conservative; NewGraph and NewHGraph re-check the
// exact final size.
func CheckCSRCapacity(entries int64) error {
	if entries > maxCSREntries {
		return fmt.Errorf("metis: %d CSR entries over the int32 limit %d: %w",
			entries, maxCSREntries, ErrTooLarge)
	}
	return nil
}

// maxEdgeWeight bounds a graph's total directed edge weight, so that every
// weight — and every coarse weight, a sum of fine ones — fits the int32
// EWgt. Tests lower it, as they do maxCSREntries.
var maxEdgeWeight = int64(math.MaxInt32)

// CheckEdgeWeight returns ErrTooLarge (wrapped) when a graph's total edge
// weight, summed over directed adjacency entries (twice the undirected
// sum), would not fit int32. graph.Build calls it before allocating the
// CSR; NewGraph and Validate check the graphs they see.
func CheckEdgeWeight(total int64) error {
	if total > maxEdgeWeight {
		return fmt.Errorf("metis: total edge weight %d over the int32 limit %d: %w",
			total, maxEdgeWeight, ErrTooLarge)
	}
	return nil
}

// NewGraph assembles a CSR graph from an edge list, merging duplicate
// edges by summing their weights. nodeWeights may be nil (all ones).
// Self-loops are dropped.
//
// Assembly is map-free: edges are normalised into packed (u,v) uint64
// keys, sorted with two stable counting-sort passes (by v, then by u) in
// O(E+N), duplicates folded in one linear scan, and both CSR directions
// scattered from the sorted run. Adjacency lists come out sorted by
// neighbour id, and identical input always yields identical output.
//
// Returns ErrTooLarge (wrapped) when the folded graph needs more than
// 2^31-1 directed adjacency entries, which int32 XAdj offsets cannot
// address, or when its total edge weight fails CheckEdgeWeight.
func NewGraph(numNodes int, edges []BuilderEdge, nodeWeights []int64) (*Graph, error) {
	// Pack normalised u < v keys; drop self-loops.
	keys := make([]uint64, 0, len(edges))
	wts := make([]int64, 0, len(edges))
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		keys = append(keys, uint64(u)<<32|uint64(uint32(v)))
		wts = append(wts, e.Weight)
	}

	// Bucket counters are int64: the raw edge list may exceed 2^31
	// entries even when the folded CSR fits int32 offsets.
	count := make([]int64, numNodes)
	if len(keys) > 0 {
		// Two stable counting-sort passes leave keys ordered by (u,v).
		tmpK := make([]uint64, len(keys))
		tmpW := make([]int64, len(wts))
		countingSortPass(0, keys, wts, tmpK, tmpW, count)
		countingSortPass(32, tmpK, tmpW, keys, wts, count)

		// Fold adjacent duplicates in place, summing weights.
		m := 0
		for i := 0; i < len(keys); {
			k, w := keys[i], wts[i]
			for i++; i < len(keys) && keys[i] == k; i++ {
				w += wts[i]
			}
			keys[m], wts[m] = k, w
			m++
		}
		keys, wts = keys[:m], wts[:m]
	}

	// Overflow guards: every distinct edge contributes two directed
	// adjacency entries, XAdj offsets are int32, and so are the folded
	// weights.
	if 2*int64(len(keys)) > maxCSREntries {
		return nil, fmt.Errorf("metis: %d edges need %d adjacency entries, over the int32 limit %d: %w",
			len(keys), 2*int64(len(keys)), maxCSREntries, ErrTooLarge)
	}
	var total int64
	for _, w := range wts {
		total += w
	}
	if err := CheckEdgeWeight(2 * total); err != nil {
		return nil, err
	}

	for i := range count {
		count[i] = 0
	}
	for _, k := range keys {
		count[k>>32]++
		count[uint32(k)]++
	}
	xadj := make([]int32, numNodes+1)
	for i := 0; i < numNodes; i++ {
		xadj[i+1] = xadj[i] + int32(count[i])
	}
	adj := make([]int32, xadj[numNodes])
	ewgt := make([]int32, xadj[numNodes])
	for i := 0; i < numNodes; i++ {
		count[i] = int64(xadj[i])
	}
	for i, k := range keys {
		u, v := int32(k>>32), int32(uint32(k))
		w := int32(wts[i])
		adj[count[u]], ewgt[count[u]] = v, w
		count[u]++
		adj[count[v]], ewgt[count[v]] = u, w
		count[v]++
	}
	return &Graph{XAdj: xadj, Adj: adj, EWgt: ewgt, NWgt: nodeWeights}, nil
}

// countingSortPass stably sorts (src, srcW) into (dst, dstW) by the 32-bit
// field of the packed key at the given shift. count is caller-provided
// scratch of length numNodes, overwritten each call.
func countingSortPass(shift uint, src []uint64, srcW []int64, dst []uint64, dstW []int64, count []int64) {
	for i := range count {
		count[i] = 0
	}
	for _, k := range src {
		count[uint32(k>>shift)]++
	}
	var sum int64
	for i := range count {
		c := count[i]
		count[i] = sum
		sum += c
	}
	for i, k := range src {
		b := uint32(k >> shift)
		p := count[b]
		count[b]++
		dst[p], dstW[p] = k, srcW[i]
	}
}

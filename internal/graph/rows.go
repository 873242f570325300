package graph

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"schism/internal/metis"
	"schism/internal/workload"
)

// rowWriter writes the clique CSR row by row. A node's neighbours
// follow from the transactions it belongs to, so every adjacency row can
// be sized and filled on its own — no edge list is materialised, nothing
// is sorted globally, and each row has exactly one writer.
type rowWriter struct {
	g *Graph
	// txnNodes[txnOff[ti]:txnOff[ti+1]] are transaction ti's distinct
	// member nodes, ascending, so that a row copied from them arrives
	// sorted.
	txnNodes []int32
	txnOff   []int32
}

// members returns transaction ti's distinct member nodes.
func (w *rowWriter) members(ti int32) []int32 {
	return w.txnNodes[w.txnOff[ti]:w.txnOff[ti+1]]
}

// txnDegree is the number of neighbours transaction ti gives each of its
// members.
func (w *rowWriter) txnDegree(ti int32) int {
	return max(0, len(w.members(ti))-1)
}

// fillTxn writes the neighbours counted by txnDegree into dst and returns
// how many it wrote.
func (w *rowWriter) fillTxn(dst []int32, v, ti int32) int {
	mem := w.members(ti)
	if len(mem) < 2 {
		return 0
	}
	k := 0
	for _, u := range mem {
		if u != v {
			dst[k] = u
			k++
		}
	}
	return k
}

// degree is the raw (unfolded) length of node v's adjacency row: a
// centre's replicas; a replica's co-members in its one transaction plus
// its centre; a plain node's co-members in every accessing transaction.
func (w *rowWriter) degree(v int32) int {
	g := w.g
	n := g.Nodes[v]
	switch {
	case n.Center:
		return int(g.accCount[n.Group])
	case n.Txn >= 0:
		return w.txnDegree(n.Txn) + 1
	}
	d := 0
	for _, ti := range g.groupTxns(n.Group) {
		d += w.txnDegree(ti)
	}
	return d
}

// weight is an adjacency weight as the CSR stores it: int32 in general,
// uint16 when buildCSR has bounded every weight below 2^16.
type weight interface{ int32 | uint16 }

// fillRow writes node v's sorted, folded adjacency into adj/ewgt (the
// row's raw-size slots) and returns the folded length. Equal neighbours —
// a pair co-accessed by several transactions, possible only for plain
// nodes — fold into one entry whose weight is the multiplicity; a
// replication edge weighs updates, the update count of v's group.
func fillRow[W weight](w *rowWriter, v int32, adj []int32, ewgt []W, updates W) int {
	g := w.g
	n := g.Nodes[v]
	if n.Center {
		for i := range adj {
			adj[i] = v + 1 + int32(i)
			ewgt[i] = updates
		}
		return len(adj)
	}
	centre := int32(-1)
	if n.Txn >= 0 {
		// The centre goes to its sorted place: after a clique's ascending
		// members that leaves nothing for the sort below to do.
		k := w.fillTxn(adj, v, n.Txn)
		centre = g.groupBase[n.Group]
		for ; k > 0 && adj[k-1] > centre; k-- {
			adj[k] = adj[k-1]
		}
		adj[k] = centre
	} else {
		k := 0
		for _, ti := range g.groupTxns(n.Group) {
			k += w.fillTxn(adj[k:], v, ti)
		}
	}
	if !slices.IsSorted(adj) {
		slices.Sort(adj)
	}
	k := 0
	for i := 0; i < len(adj); {
		u, j := adj[i], i+1
		for j < len(adj) && adj[j] == u {
			j++
		}
		adj[k], ewgt[k] = u, W(j-i)
		k++
		i = j
	}
	if centre >= 0 {
		// A centre is no transaction's member, so it sits in the row once.
		at, _ := slices.BinarySearch(adj[:k], centre)
		ewgt[at] = updates
	}
	return k
}

// buildCSR assembles the clique CSR over the node layout buildCore
// produced. The result is what metis.NewGraph returns for the same edges —
// sorted rows, duplicate edges summed — and is identical at any worker
// count, because every row is computed from read-only inputs by the one
// worker that owns it.
func (g *Graph) buildCSR(nwgt []int64) (*metis.Graph, error) {
	c, numNodes, numTxns := g.Compact, int32(len(g.Nodes)), g.Compact.NumTxns()
	w := &rowWriter{
		g:        g,
		txnNodes: make([]int32, 0, len(g.txnList)),
		txnOff:   make([]int32, numTxns+1),
	}
	// Member lists. Transactions run in ascending order and so do accessor
	// lists, so seen[gi] — the distinct transactions met so far that access
	// group gi — is both the replica rank of the current one and, through
	// the accessor list, the record of whether it was already counted.
	seen := make([]int32, len(g.groupBase))
	for ti := 0; ti < numTxns; ti++ {
		for _, e := range c.Txn(ti) {
			gi := g.GroupOf[e&^workload.WriteBit]
			r := seen[gi]
			if r > 0 && g.txnList[g.accOff[gi]+r-1] == int32(ti) {
				continue
			}
			seen[gi] = r + 1
			node := g.groupBase[gi]
			if g.exploded[gi] {
				node += 1 + r
			}
			w.txnNodes = append(w.txnNodes, node)
		}
		w.txnOff[ti+1] = int32(len(w.txnNodes))
		slices.Sort(w.members(int32(ti)))
	}

	// Row offsets at raw size. The sum runs in int64 and is checked before
	// anything proportional to edges is allocated: the clique expansion is
	// quadratic per transaction, so a modest trace can blow past int32 CSR
	// capacity (and any sane allocation). The int32 offsets stored on the
	// way only wrap for a graph the check rejects.
	//
	// The total edge weight is checked alongside: transaction entries weigh
	// 1 each before folding, so they sum to their raw count, but a star's
	// 2·replicas entries weigh its group's update count, and a write-hot
	// group's star can outweigh int32 on its own.
	//
	// maxW bounds every single weight: a star entry weighs its group's
	// update count, and a folded clique entry at most the number of
	// transactions accessing its plain group.
	xadj := make([]int32, numNodes+1)
	var entries, weight, maxW int64
	for v := int32(0); v < numNodes; v++ {
		d := int64(w.degree(v))
		entries += d
		xadj[v+1] = int32(entries)
		switch n := g.Nodes[v]; {
		case n.Center:
			updates, _ := g.replWeights(n.Group)
			weight += 2 * d * (updates - 1)
			maxW = max(maxW, updates)
		case n.Txn < 0:
			maxW = max(maxW, int64(g.accCount[n.Group]))
		}
	}
	weight += entries
	if err := metis.CheckCSRCapacity(entries); err != nil {
		return nil, fmt.Errorf("graph: %d clique edges from %d transactions: %w (sample the trace or use BuildHyper)",
			entries/2, numTxns, err)
	}
	if err := metis.CheckEdgeWeight(weight); err != nil {
		return nil, fmt.Errorf("graph: replicated tuples of %d transactions: %w (sample the trace or use BuildHyper)",
			numTxns, err)
	}
	// The weights take two bytes an entry when maxW allows, the common
	// case: a clique entry that no second transaction shares weighs 1.
	out := &metis.Graph{XAdj: xadj, NWgt: nwgt}
	adj := make([]int32, entries)
	if maxW <= math.MaxUint16 {
		out.Adj, out.EWgt16 = fillCSR(w, xadj, adj, make([]uint16, entries))
	} else {
		out.Adj, out.EWgt = fillCSR(w, xadj, adj, make([]int32, entries))
	}
	return out, nil
}

// fillCSR fills adj and ewgt, allocated at the raw sizes xadj gives, row
// by row, and folds them (and xadj) to their final size.
func fillCSR[W weight](w *rowWriter, xadj, adj []int32, ewgt []W) ([]int32, []W) {
	g, numNodes, entries := w.g, int32(len(xadj)-1), int64(len(adj))

	// Fill: workers own contiguous node ranges holding about equal shares
	// of the entries. A row that folded ends in a -1 sentinel.
	workers := maxWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, int(numNodes)))
	folded := make([]bool, workers)
	var wg sync.WaitGroup
	lo := int32(0)
	for s := 0; s < workers; s++ {
		hi := numNodes
		if s < workers-1 {
			target := entries * int64(s+1) / int64(workers)
			hi = int32(sort.Search(int(numNodes), func(v int) bool { return int64(xadj[v]) >= target }))
		}
		wg.Add(1)
		go func(s int, lo, hi int32) {
			defer wg.Done()
			// A star's nodes are contiguous, so its update count is
			// computed once per worker that meets it, not once per replica.
			group, updates := int32(-1), W(0)
			for v := lo; v < hi; v++ {
				if gi := g.Nodes[v].Group; gi != group && g.exploded[gi] {
					group = gi
					u, _ := g.replWeights(gi)
					updates = W(u)
				}
				row := adj[xadj[v]:xadj[v+1]]
				if k := fillRow(w, v, row, ewgt[xadj[v]:xadj[v+1]], updates); k < len(row) {
					row[k] = -1
					folded[s] = true
				}
			}
		}(s, lo, hi)
		lo = hi
	}
	wg.Wait()

	// Compact folded rows left, in place. Under Replication every
	// non-centre node belongs to one transaction, no row folds, and the raw
	// offsets are already final.
	if slices.Contains(folded, true) {
		out := int32(0)
		for v := int32(0); v < numNodes; v++ {
			from, end := xadj[v], xadj[v+1]
			xadj[v] = out
			for ; from < end && adj[from] >= 0; from++ {
				adj[out], ewgt[out] = adj[from], ewgt[from]
				out++
			}
		}
		xadj[numNodes] = out
		adj, ewgt = adj[:out], ewgt[:out]
	}
	return adj, ewgt
}

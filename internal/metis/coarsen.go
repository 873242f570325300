package metis

// coarsen builds the multilevel hierarchy in the solver's reusable level
// storage by repeated heavy-edge matching until the graph has at most
// coarsenTo nodes or coarsening stalls. It returns the number of levels
// (>= 1); level 0 is the caller's graph g, level i > 0 lives in
// s.levels[i].graph, and s.levels[i].cmap maps level-i nodes to level-i+1
// nodes.
func (s *Solver) coarsen(g *Graph, coarsenTo int) int {
	cur := g
	li := 0
	for cur.NumNodes() > coarsenTo && li < 39 {
		lv := s.level(li)
		lv.cmap = growI32(lv.cmap, cur.NumNodes())
		cmap := lv.cmap[:cur.NumNodes()]
		numCoarse := s.heavyEdgeMatch(cur, cmap)
		// Stall detection: if matching barely shrinks the graph (typical of
		// star-like graphs where most nodes share one hub), stop coarsening.
		if float64(numCoarse) > 0.95*float64(cur.NumNodes()) {
			break
		}
		next := s.level(li + 1)
		s.contract(cur, cmap, numCoarse, next)
		cur = &next.graph
		li++
	}
	return li + 1
}

// levelGraph returns the graph at level i (the caller's graph at level 0).
func (s *Solver) levelGraph(g *Graph, i int) *Graph {
	if i == 0 {
		return g
	}
	return &s.levels[i].graph
}

// heavyEdgeMatch computes a matching that pairs each unmatched node with
// its unmatched neighbour of maximum edge weight (ties broken by first
// encounter), visiting nodes in random order. Unmatchable nodes remain
// singletons. Coarse ids are assigned in node order into cmap so output
// is deterministic given the matching; returns the coarse node count.
func (s *Solver) heavyEdgeMatch(g *Graph, cmap []int32) int {
	n := g.NumNodes()
	s.match = growI32(s.match, n)
	match := s.match[:n]
	for i := range match {
		match[i] = -1
	}
	xadj, adj, ew := g.XAdj, g.Adj, g.weights()
	for _, u := range s.permute(n) {
		if match[u] >= 0 {
			continue
		}
		best := int32(-1)
		var bestW int64 = -1
		for j, end := int(xadj[u]), int(xadj[u+1]); j < end; j++ {
			v := adj[j]
			if match[v] >= 0 || v == u {
				continue
			}
			if w := ew.at(j); w > bestW {
				bestW, best = w, v
			}
		}
		if best >= 0 {
			match[u], match[best] = best, u
		} else {
			match[u] = u
		}
	}
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for u := int32(0); int(u) < n; u++ {
		if cmap[u] >= 0 {
			continue
		}
		cmap[u] = next
		if m := match[u]; m != u && m >= 0 {
			cmap[m] = next
		}
		next++
	}
	return int(next)
}

// contract builds the coarse graph induced by cmap directly in CSR form,
// writing into the reusable buffers of out: coarse node weights are sums
// of member weights, parallel edges merge by summing weights, and
// intra-group edges vanish.
//
// Unlike the old path — appending a []BuilderEdge and paying NewGraph's
// two counting-sort passes over the full fine edge list per level — this
// works row-by-row over the fine graph's adjacency:
//
//  1. a counting sort of cmap groups fine nodes into per-coarse-node
//     member lists (ascending fine id, so output is deterministic);
//  2. a counting pass over the fine adjacency finds every coarse node's
//     distinct coarse neighbours, so the coarse CSR is allocated once at
//     its exact size;
//  3. a fold-and-scatter pass walks each coarse node's members, folds its
//     row in first-encounter order into a one-row scratch (a marker/slot
//     table merges parallel edge weights) and scatters it to its
//     neighbours' rows: visiting source rows in ascending order emits
//     every destination row sorted by neighbour id, preserving the
//     package's sorted-adjacency invariant with no comparison sort.
//
// Only one folded row is held beside the output: all of them together
// are a second copy of the coarse graph, and with that copy live the peak
// heap of a run depends on where a collection happens to fall.
//
// The result is bit-identical to NewGraph over the same coarse edge
// multiset (pinned by TestContractMatchesNaive).
func (s *Solver) contract(f *Graph, cmap []int32, numCoarse int, out *levelData) {
	n := f.NumNodes()
	nc := numCoarse

	out.nwgt = growI64(out.nwgt, nc)
	nwgt := out.nwgt[:nc]
	for i := range nwgt {
		nwgt[i] = 0
	}
	for u := 0; u < n; u++ {
		nwgt[cmap[u]] += f.NodeWeight(int32(u))
	}

	// Member lists: counting sort of cmap keeps members in ascending fine
	// id within each coarse node, so fill order is deterministic.
	s.mstart = growI32(s.mstart, nc+1)
	ms := s.mstart[:nc+1]
	for i := range ms {
		ms[i] = 0
	}
	for _, c := range cmap {
		ms[c+1]++
	}
	for i := 0; i < nc; i++ {
		ms[i+1] += ms[i]
	}
	s.members = growI32(s.members, n)
	mem := s.members[:n]
	s.pos = growI32(s.pos, nc)
	pos := s.pos[:nc]
	copy(pos, ms[:nc])
	for u := 0; u < n; u++ {
		c := cmap[u]
		mem[pos[c]] = int32(u)
		pos[c]++
	}

	// Count: mark[c] is stamped first so the node's own group is never
	// counted, which leaves the inner loop one test.
	s.mark = growI32(s.mark, nc)
	s.slot = growI32(s.slot, nc)
	mark, slot := s.mark[:nc], s.slot[:nc]
	for i := range mark {
		mark[i] = 0
	}
	out.xadj = growI32(out.xadj, nc+1)
	xadj := out.xadj[:nc+1]
	fxadj, fadj, few := f.XAdj, f.Adj, f.weights()
	m := 0
	for c := 0; c < nc; c++ {
		xadj[c] = int32(m)
		stamp := int32(c) + 1
		mark[c] = stamp
		for _, u := range mem[ms[c]:ms[c+1]] {
			for _, v := range fadj[fxadj[u]:fxadj[u+1]] {
				cv := cmap[v]
				if mark[cv] != stamp {
					m++
				}
				mark[cv] = stamp
			}
		}
	}
	// A coarse row folds a subset of the fine adjacency, so m can never
	// exceed the fine entry count and the int32 offsets are safe by
	// induction from NewGraph's overflow guard; assert it anyway so a
	// future invariant break fails loudly instead of wrapping.
	if int64(m) > maxCSREntries {
		panic("metis: contracted graph exceeds int32 CSR index capacity")
	}
	xadj[nc] = int32(m)

	// The two arrays are most of a level, so they get no grow headroom.
	if cap(out.adj) < m {
		out.adj, out.ewgt = make([]int32, m), make([]int32, m)
	}
	adj, ewgt := out.adj[:m], out.ewgt[:m]

	// Fold and scatter: row cv receives its neighbours c in ascending order
	// because source rows are visited in ascending order, and the folded
	// weight of (c,cv) equals that of (cv,c) by symmetry. Stamps are
	// negative here to tell them from the counting pass's. A folded weight
	// sums fine weights in int64 and fits the int32 slot because the fine
	// graph's total does (CheckEdgeWeight).
	copy(pos, xadj[:nc])
	row, roww := s.row, s.roww
	for c := 0; c < nc; c++ {
		stamp := -int32(c) - 1
		row, roww = row[:0], roww[:0]
		for _, u := range mem[ms[c]:ms[c+1]] {
			for j, end := int(fxadj[u]), int(fxadj[u+1]); j < end; j++ {
				cv := cmap[fadj[j]]
				if int(cv) == c {
					continue
				}
				w := few.at(j)
				if mark[cv] != stamp {
					mark[cv] = stamp
					slot[cv] = int32(len(row))
					row = append(row, cv)
					roww = append(roww, w)
				} else {
					roww[slot[cv]] += w
				}
			}
		}
		for i, cv := range row {
			p := pos[cv]
			adj[p] = int32(c)
			ewgt[p] = int32(roww[i])
			pos[cv] = p + 1
		}
	}
	s.row, s.roww = row, roww
	out.graph = Graph{XAdj: xadj, Adj: adj, EWgt: ewgt, NWgt: nwgt}
}

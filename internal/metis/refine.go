package metis

// This file is the uncoarsening half of the partitioner: after each
// projection, refinement no longer sweeps all n nodes per pass. A
// boundary worklist (bndList + bndPos membership index) is seeded from
// the cut edges in one O(N+E) scan per level and maintained
// incrementally as moves change neighbours' external degrees, so each
// refinement pass touches only nodes that can actually move.

// seedRefinement computes part weights, per-node external (cut-edge)
// degrees and total incident weights, and the boundary worklist for one
// level in a single O(N+E) scan. It must run after projection and before
// rebalance and the per-level refinement.
func (s *Solver) seedRefinement(g *Graph, parts []int32, k int) {
	n := g.NumNodes()
	pw := s.pw[:k]
	for p := range pw {
		pw[p] = 0
	}
	s.ed = growI64(s.ed, n)
	s.totw = growI64(s.totw, n)
	s.bndPos = growI32(s.bndPos, n)
	s.bndList = s.bndList[:0]
	xadj, adj, ew := g.XAdj, g.Adj, g.weights()
	for u := 0; u < n; u++ {
		pu := parts[u]
		pw[pu] += g.NodeWeight(int32(u))
		var ext, tot int64
		for j, end := int(xadj[u]), int(xadj[u+1]); j < end; j++ {
			w := ew.at(j)
			tot += w
			if parts[adj[j]] != pu {
				ext += w
			}
		}
		s.ed[u] = ext
		s.totw[u] = tot
		s.bndPos[u] = -1
		s.updateBoundary(int32(u), ext > 0)
	}
}

// applyMove relabels u from part `from` to part `to` and incrementally
// repairs all refinement state: part weights, the external degrees of u
// and its neighbours, and boundary-worklist membership. connTo is u's
// connectivity to `to` and totW its total adjacent edge weight, both
// already known from the caller's connectivity scan.
func (s *Solver) applyMove(g *Graph, parts []int32, u, from, to int32, connTo, totW int64) {
	w := g.NodeWeight(u)
	parts[u] = to
	s.pw[from] -= w
	s.pw[to] += w
	s.ed[u] = totW - connTo
	s.updateBoundary(u, s.ed[u] > 0)
	xadj, adj, ew := g.XAdj, g.Adj, g.weights()
	for j, end := int(xadj[u]), int(xadj[u+1]); j < end; j++ {
		v := adj[j]
		switch parts[v] {
		case from:
			// v's edge to u was internal and is now cut.
			s.ed[v] += ew.at(j)
			s.updateBoundary(v, s.ed[v] > 0)
		case to:
			// v's edge to u was cut and is now internal.
			s.ed[v] -= ew.at(j)
			s.updateBoundary(v, s.ed[v] > 0)
		}
	}
}

// kwayRefine runs greedy k-way boundary refinement: repeated passes over
// the shared pass queue (startPasses), moving each node to the adjacent
// partition that most reduces the cut (pickMove, with gain
// conn(to) − conn(from)), subject to the balance caps. Stops when the
// queue drains or maxPasses is reached.
func (s *Solver) kwayRefine(g *Graph, parts []int32, maxPasses int) {
	s.startPasses(g.NumNodes())
	for pass := 0; pass < maxPasses; pass++ {
		cur := s.nextPass()
		if len(cur) == 0 {
			break
		}
		for _, u := range cur {
			if !s.dequeue(u) {
				continue // left the boundary since it was queued
			}
			from := parts[u]
			totW := s.scanEdges(g, parts, u)
			best, connBest := s.pickMove(from, g.NodeWeight(u), s.conn[from])
			if best >= 0 {
				s.applyMove(g, parts, u, from, best, connBest, totW)
				// Re-queue the move's neighbourhood, the only nodes whose
				// gains changed.
				s.requeue(u)
				for _, v := range g.Adj[g.XAdj[u]:g.XAdj[u+1]] {
					s.requeue(v)
				}
			}
		}
	}
}

// rebalance moves nodes out of overloaded partitions (weight > maxPW),
// each to rebalanceTarget's choice. It runs after projection at each
// uncoarsening level, where the coarse partition may violate balance on
// the finer graph, and every move keeps the boundary worklist consistent
// for the refinement that follows.
func (s *Solver) rebalance(g *Graph, parts []int32, k int) {
	for _, u := range s.overloaded(parts, k) {
		from := parts[u]
		if s.pw[from] <= s.maxPW[from] {
			continue
		}
		totW := s.scanEdges(g, parts, u)
		if best, connBest := s.rebalanceTarget(from, g.NodeWeight(u), k); best >= 0 {
			s.applyMove(g, parts, u, from, best, connBest, totW)
		}
	}
}

// scanEdges adds u's edge weight to each neighbouring part into conn,
// listing those parts in touched, and returns u's total edge weight.
func (s *Solver) scanEdges(g *Graph, parts []int32, u int32) int64 {
	adj, ew := g.Adj, g.weights()
	var totW int64
	conn, touched := s.conn, s.touched[:0]
	for j, end := int(g.XAdj[u]), int(g.XAdj[u+1]); j < end; j++ {
		p := parts[adj[j]]
		w := ew.at(j)
		if conn[p] == 0 {
			touched = append(touched, p)
		}
		conn[p] += w
		totW += w
	}
	s.touched = touched
	return totW
}

// fmRefine2 is boundary-restricted Fiduccia–Mattheyses refinement for
// 2-way partitions, run per uncoarsening level in place of the greedy
// k-way pass (real METIS's BKL(FM) — the hill-climbing matters most for
// bisections, where greedy positive-gain moves get stuck on plateaus).
//
// Each pass seeds an indexed max-heap from the boundary worklist; gains
// need no scan because for two parts a node's gain is exactly
// 2*ed[u] - totw[u] from the incrementally-maintained refinement state.
// Nodes move at most once per pass, negative-gain moves are allowed, and
// the pass rolls back to the best cumulative-cut prefix. Every move (and
// rollback) goes through applyMove, so part weights, external degrees,
// and the boundary worklist stay consistent throughout.
func (s *Solver) fmRefine2(g *Graph, parts []int32, maxPasses int) {
	n := g.NumNodes()
	s.fmPos = growI32(s.fmPos, n)
	s.fmLocked = growBool(s.fmLocked, n)
	locked := s.fmLocked[:n]
	for i := range locked {
		locked[i] = false
	}
	pq := &s.fmPQ
	xadj, adj := g.XAdj, g.Adj
	for pass := 0; pass < maxPasses; pass++ {
		if len(s.bndList) == 0 {
			return
		}
		pq.reset(n, s.fmPos)
		for _, u := range s.bndList {
			pq.set(u, 2*s.ed[u]-s.totw[u])
		}
		moves := s.fmMoves[:0]
		var cum, best int64
		bestIdx := -1
		for pq.len() > 0 {
			e := pq.popMax()
			u := e.node
			from := parts[u]
			to := 1 - from
			w := g.NodeWeight(u)
			srcOver := s.pw[from] > s.maxPW[from]
			if s.pw[to]+w > s.maxPW[to] && !srcOver {
				continue // balance-blocked; re-enters if its gain changes
			}
			// For 2-way, u's connectivity to the far side is its external
			// degree, so the move needs no connectivity scan at all.
			cum += 2*s.ed[u] - s.totw[u]
			s.applyMove(g, parts, u, from, to, s.ed[u], s.totw[u])
			locked[u] = true
			moves = append(moves, moveRec{node: u, from: from})
			if cum > best {
				best = cum
				bestIdx = len(moves) - 1
			}
			for j, end := int(xadj[u]), int(xadj[u+1]); j < end; j++ {
				if v := adj[j]; !locked[v] {
					pq.set(v, 2*s.ed[v]-s.totw[v])
				}
			}
		}
		// Roll back moves past the best prefix; applyMove keeps the
		// refinement state consistent in both directions.
		for i := len(moves) - 1; i > bestIdx; i-- {
			m := moves[i]
			s.applyMove(g, parts, m.node, parts[m.node], m.from, s.ed[m.node], s.totw[m.node])
		}
		for _, m := range moves {
			locked[m.node] = false
		}
		s.fmMoves = moves[:0]
		if best <= 0 {
			break
		}
	}
}

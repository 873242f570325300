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
		if ext > 0 {
			s.bndPos[u] = int32(len(s.bndList))
			s.bndList = append(s.bndList, int32(u))
		} else {
			s.bndPos[u] = -1
		}
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
	s.updateBoundary(u)
	xadj, adj, ew := g.XAdj, g.Adj, g.weights()
	for j, end := int(xadj[u]), int(xadj[u+1]); j < end; j++ {
		v := adj[j]
		switch parts[v] {
		case from:
			// v's edge to u was internal and is now cut.
			s.ed[v] += ew.at(j)
			s.updateBoundary(v)
		case to:
			// v's edge to u was cut and is now internal.
			s.ed[v] -= ew.at(j)
			s.updateBoundary(v)
		}
	}
}

// updateBoundary reconciles u's worklist membership with its external
// degree. Removal is a swap-delete through the bndPos index, so both
// directions are O(1).
func (s *Solver) updateBoundary(u int32) {
	if s.ed[u] > 0 {
		if s.bndPos[u] < 0 {
			s.bndPos[u] = int32(len(s.bndList))
			s.bndList = append(s.bndList, u)
		}
	} else if p := s.bndPos[u]; p >= 0 {
		last := s.bndList[len(s.bndList)-1]
		s.bndList[p] = last
		s.bndPos[last] = p
		s.bndList = s.bndList[:len(s.bndList)-1]
		s.bndPos[u] = -1
	}
}

// kwayRefine runs greedy k-way boundary refinement: repeated passes over
// a shuffled worklist of candidate nodes, moving each to the adjacent
// partition that most reduces the cut, subject to the balance caps.
// Zero-gain moves are taken only when they improve balance.
//
// The first pass visits the whole boundary; later passes visit only
// nodes re-queued because a move changed their neighbourhood (the node
// itself or a neighbour moved), so converged regions cost nothing after
// pass one. Stops when the queue drains or maxPasses is reached.
func (s *Solver) kwayRefine(g *Graph, parts []int32, k, maxPasses int) {
	n := g.NumNodes()
	touched := s.touched[:0]
	s.queued = growBool(s.queued, n)
	queued := s.queued[:n]
	for i := range queued {
		queued[i] = false
	}
	s.nextList = growI32(s.nextList, len(s.bndList))
	next := append(s.nextList[:0], s.bndList...)
	for _, u := range next {
		queued[u] = true
	}
	cur := s.passList[:0]
	xadj, adj, ew := g.XAdj, g.Adj, g.weights()
	conn := s.conn
	for pass := 0; pass < maxPasses; pass++ {
		if len(next) == 0 {
			break
		}
		cur, next = next, cur[:0]
		s.shuffle(cur)
		for _, u := range cur {
			queued[u] = false
			if s.bndPos[u] < 0 {
				continue // left the boundary since it was queued
			}
			from := parts[u]
			var totW int64
			touched = touched[:0]
			for j, end := int(xadj[u]), int(xadj[u+1]); j < end; j++ {
				p := parts[adj[j]]
				w := ew.at(j)
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += w
				totW += w
			}
			w := g.NodeWeight(u)
			var best int32 = -1
			var bestGain int64
			for _, p := range touched {
				if p == from || s.pw[p]+w > s.maxPW[p] {
					continue
				}
				gain := conn[p] - conn[from]
				switch {
				case gain < 0:
					// Never worsen the cut here; rebalance() handles
					// overload with negative-gain moves separately.
				case best < 0 && (gain > 0 || s.pw[p]+w < s.pw[from]):
					// First acceptable move: positive gain, or zero gain
					// that strictly improves balance.
					best, bestGain = p, gain
				case best >= 0 && gain > bestGain:
					best, bestGain = p, gain
				}
			}
			var connBest int64
			if best >= 0 {
				connBest = conn[best]
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best >= 0 {
				s.applyMove(g, parts, u, from, best, connBest, totW)
				// Re-queue the move's neighbourhood for the next pass —
				// the only nodes whose gains changed. A deliberate drift
				// from the full-sweep reference: a balance-blocked node
				// far from any move is not retried when capacity frees up
				// elsewhere; the quality tests bound the effect.
				if s.bndPos[u] >= 0 && !queued[u] {
					queued[u] = true
					next = append(next, u)
				}
				for j, end := int(xadj[u]), int(xadj[u+1]); j < end; j++ {
					v := adj[j]
					if s.bndPos[v] >= 0 && !queued[v] {
						queued[v] = true
						next = append(next, v)
					}
				}
			}
		}
	}
	// Hand the buffers back so their capacity is retained across calls.
	s.passList, s.nextList = cur[:0], next[:0]
	s.touched = touched[:0]
}

// rebalance moves nodes out of overloaded partitions (weight > maxPW)
// into the least-loaded feasible partitions, choosing moves that hurt the
// cut least. It runs after projection at each uncoarsening level, where
// the coarse partition may violate balance on the finer graph. Candidates
// are only the nodes of overloaded partitions (collected in one O(N) id
// scan, no per-node connectivity work for the rest), and every move keeps
// the boundary worklist consistent for the refinement that follows.
func (s *Solver) rebalance(g *Graph, parts []int32, k int) {
	over := false
	for p := 0; p < k; p++ {
		if s.pw[p] > s.maxPW[p] {
			over = true
			break
		}
	}
	if !over {
		return
	}
	n := g.NumNodes()
	s.overList = s.overList[:0]
	for u := 0; u < n; u++ {
		if s.pw[parts[u]] > s.maxPW[parts[u]] {
			s.overList = append(s.overList, int32(u))
		}
	}
	s.shuffle(s.overList)
	touched := s.touched[:0]
	for _, u := range s.overList {
		from := parts[u]
		if s.pw[from] <= s.maxPW[from] {
			continue
		}
		w := g.NodeWeight(u)
		var totW int64
		touched = touched[:0]
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			p := parts[g.Adj[j]]
			ew := g.edgeWeight(j)
			if s.conn[p] == 0 {
				touched = append(touched, p)
			}
			s.conn[p] += ew
			totW += ew
		}
		// Prefer the adjacent partition with max connectivity that has room;
		// fall back to the globally least-loaded partition.
		var best int32 = -1
		var bestConn int64 = -1
		for _, p := range touched {
			if p == from || s.pw[p]+w > s.maxPW[p] {
				continue
			}
			if s.conn[p] > bestConn {
				bestConn = s.conn[p]
				best = p
			}
		}
		if best < 0 {
			var minLoad int64 = 1<<63 - 1
			for p := 0; p < k; p++ {
				if int32(p) == from {
					continue
				}
				if s.pw[p]+w <= s.maxPW[p] && s.pw[p] < minLoad {
					minLoad = s.pw[p]
					best = int32(p)
				}
			}
		}
		var connBest int64
		if best >= 0 {
			connBest = s.conn[best]
		}
		for _, p := range touched {
			s.conn[p] = 0
		}
		if best >= 0 {
			s.applyMove(g, parts, u, from, best, connBest, totW)
		}
	}
	s.touched = touched[:0]
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

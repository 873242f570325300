package metis

// This file is the uncoarsening half of the hypergraph partitioner. The
// refinement state is the per-net partition span: for net e a compact
// list of (partition, pin count) pairs whose live length is exactly
// λ(e), stored in slot arrays sized Σ min(|e|, k) — linear in pins, in
// contrast to a dense nets×k table. A node is boundary iff it has at
// least one incident net with λ > 1 (tracked by hbcnt), and the same
// worklist discipline as the plain-graph refinement applies: seed once
// per level in O(pins), then maintain incrementally per move.

// hseedRefinement computes part weights, per-net partition spans, the
// per-node boundary counts, and the boundary worklist for one level in
// O(N + pins). It must run after projection and before hrebalance and
// hkwayRefine.
func (s *Solver) hseedRefinement(h *HGraph, parts []int32, k int) {
	n := h.NumNodes()
	numNets := h.NumNets()
	pw := s.pw[:k]
	for p := range pw {
		pw[p] = 0
	}
	for u := 0; u < n; u++ {
		pw[parts[u]] += h.NodeWeight(int32(u))
	}

	// Slot spans: net e can straddle at most min(|e|, k) partitions.
	s.hpOff = growI32(s.hpOff, numNets+1)
	off := s.hpOff[:numNets+1]
	total := int32(0)
	for e := 0; e < numNets; e++ {
		off[e] = total
		span := h.XPins[e+1] - h.XPins[e]
		if int(span) > k {
			span = int32(k)
		}
		total += span
	}
	off[numNets] = total
	s.hpPart = growI32(s.hpPart, int(total))
	s.hpCnt = growI32(s.hpCnt, int(total))
	s.hpLen = growI32(s.hpLen, numNets)
	s.hbcnt = growI32(s.hbcnt, n)
	hbcnt := s.hbcnt[:n]
	for i := range hbcnt {
		hbcnt[i] = 0
	}
	for e := int32(0); int(e) < numNets; e++ {
		s.hpLen[e] = 0
		for _, v := range h.netPins(e) {
			s.hpAdd(e, parts[v])
		}
		if s.hpLen[e] > 1 {
			for _, v := range h.netPins(e) {
				hbcnt[v]++
			}
		}
	}

	s.bndPos = growI32(s.bndPos, n)
	s.bndList = s.bndList[:0]
	for u := 0; u < n; u++ {
		if hbcnt[u] > 0 {
			s.bndPos[u] = int32(len(s.bndList))
			s.bndList = append(s.bndList, int32(u))
		} else {
			s.bndPos[u] = -1
		}
	}
}

// hpAdd adds one pin of net e to partition p, extending the span when p
// was absent (λ grows by one).
func (s *Solver) hpAdd(e, p int32) {
	base := s.hpOff[e]
	end := base + s.hpLen[e]
	for i := base; i < end; i++ {
		if s.hpPart[i] == p {
			s.hpCnt[i]++
			return
		}
	}
	s.hpPart[end] = p
	s.hpCnt[end] = 1
	s.hpLen[e]++
}

// hpRemove removes one pin of net e from partition p, swap-deleting the
// slot when the count hits zero (λ shrinks by one).
func (s *Solver) hpRemove(e, p int32) {
	base := s.hpOff[e]
	end := base + s.hpLen[e]
	for i := base; i < end; i++ {
		if s.hpPart[i] == p {
			if s.hpCnt[i]--; s.hpCnt[i] == 0 {
				s.hpPart[i], s.hpCnt[i] = s.hpPart[end-1], s.hpCnt[end-1]
				s.hpLen[e]--
			}
			return
		}
	}
}

// hApplyMove relabels u from part `from` to part `to` and incrementally
// repairs all hypergraph refinement state: part weights, every incident
// net's partition span, and — on a λ 1↔2 transition — the boundary
// counts and worklist membership of the net's pins. Span updates are
// O(span) and the O(|e|) pin sweep happens only on transitions, so a
// converged region stays cheap.
func (s *Solver) hApplyMove(h *HGraph, parts []int32, u, from, to int32) {
	w := h.NodeWeight(u)
	parts[u] = to
	s.pw[from] -= w
	s.pw[to] += w
	hbcnt := s.hbcnt
	for _, e := range h.Nets[h.XNets[u]:h.XNets[u+1]] {
		before := s.hpLen[e]
		s.hpRemove(e, from)
		s.hpAdd(e, to)
		after := s.hpLen[e]
		if before <= 1 && after > 1 {
			for _, v := range h.netPins(e) {
				hbcnt[v]++
				s.hUpdateBoundary(v)
			}
		} else if before > 1 && after <= 1 {
			for _, v := range h.netPins(e) {
				hbcnt[v]--
				s.hUpdateBoundary(v)
			}
		}
	}
}

// hUpdateBoundary reconciles u's worklist membership with its boundary
// count, the hbcnt-keyed twin of updateBoundary.
func (s *Solver) hUpdateBoundary(u int32) {
	if s.hbcnt[u] > 0 {
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

// hkwayRefine runs greedy k-way boundary refinement on the connectivity
// metric: repeated passes over a shuffled worklist, moving each node to
// the candidate partition that most reduces Σ w·(λ−1), subject to the
// balance caps. For a move u: from → q the gain reduces to
//
//	gain(q) = conn(q) − Σ_{e ∋ u: cnt(e, from) > 1} w(e)
//
// where conn(q) = Σ of w(e) over u's nets with a pin already in q: a
// net u is the last `from` pin of stops straddling from (+w) exactly
// when q already holds a pin (else the straddle just moves), and a net
// with other `from` pins grows λ (−w) exactly when q held none. Both
// terms come from one scan of u's net spans. Zero-gain moves are taken
// only when they improve balance. The queue discipline matches
// kwayRefine: pass one visits the whole boundary, later passes only
// re-queued neighbourhoods of applied moves.
func (s *Solver) hkwayRefine(h *HGraph, parts []int32, k, maxPasses int) {
	n := h.NumNodes()
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
			var baseNeg int64 // Σ w(e) over nets where u is not the last `from` pin
			touched = touched[:0]
			for _, e := range h.Nets[h.XNets[u]:h.XNets[u+1]] {
				w := h.netWeight(e)
				base := s.hpOff[e]
				end := base + s.hpLen[e]
				for i := base; i < end; i++ {
					p := s.hpPart[i]
					if p == from {
						if s.hpCnt[i] > 1 {
							baseNeg += w
						}
						continue
					}
					if conn[p] == 0 {
						touched = append(touched, p)
					}
					conn[p] += w
				}
			}
			w := h.NodeWeight(u)
			var best int32 = -1
			var bestGain int64
			for _, p := range touched {
				if s.pw[p]+w > s.maxPW[p] {
					continue
				}
				gain := conn[p] - baseNeg
				switch {
				case gain < 0:
					// Never worsen the connectivity here; hrebalance
					// handles overload with negative-gain moves.
				case best < 0 && (gain > 0 || s.pw[p]+w < s.pw[from]):
					best, bestGain = p, gain
				case best >= 0 && gain > bestGain:
					best, bestGain = p, gain
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best >= 0 {
				s.hApplyMove(h, parts, u, from, best)
				// Re-queue the move's neighbourhood — every pin sharing a
				// net with u may have a changed gain. Same deliberate
				// drift from a full sweep as kwayRefine; the differential
				// matrix bounds the effect.
				if s.bndPos[u] >= 0 && !queued[u] {
					queued[u] = true
					next = append(next, u)
				}
				for _, e := range h.Nets[h.XNets[u]:h.XNets[u+1]] {
					for _, v := range h.netPins(e) {
						if s.bndPos[v] >= 0 && !queued[v] {
							queued[v] = true
							next = append(next, v)
						}
					}
				}
			}
		}
	}
	s.passList, s.nextList = cur[:0], next[:0]
	s.touched = touched[:0]
}

// hrebalance moves nodes out of overloaded partitions into feasible
// ones, preferring the partition the node's nets are most connected to
// (least connectivity damage) and falling back to the least-loaded. It
// runs after projection at each uncoarsening level, mirroring rebalance.
func (s *Solver) hrebalance(h *HGraph, parts []int32, k int) {
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
	n := h.NumNodes()
	s.overList = s.overList[:0]
	for u := 0; u < n; u++ {
		if s.pw[parts[u]] > s.maxPW[parts[u]] {
			s.overList = append(s.overList, int32(u))
		}
	}
	s.shuffle(s.overList)
	touched := s.touched[:0]
	conn := s.conn
	for _, u := range s.overList {
		from := parts[u]
		if s.pw[from] <= s.maxPW[from] {
			continue
		}
		w := h.NodeWeight(u)
		touched = touched[:0]
		for _, e := range h.Nets[h.XNets[u]:h.XNets[u+1]] {
			nw := h.netWeight(e)
			base := s.hpOff[e]
			end := base + s.hpLen[e]
			for i := base; i < end; i++ {
				p := s.hpPart[i]
				if p == from {
					continue
				}
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += nw
			}
		}
		var best int32 = -1
		var bestConn int64 = -1
		for _, p := range touched {
			if s.pw[p]+w > s.maxPW[p] {
				continue
			}
			if conn[p] > bestConn {
				bestConn, best = conn[p], p
			}
		}
		for _, p := range touched {
			conn[p] = 0
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
		if best >= 0 {
			s.hApplyMove(h, parts, u, from, best)
		}
	}
	s.touched = touched[:0]
}

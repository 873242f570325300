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
		s.bndPos[u] = -1
		s.updateBoundary(int32(u), hbcnt[u] > 0)
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
				s.updateBoundary(v, hbcnt[v] > 0)
			}
		} else if before > 1 && after <= 1 {
			for _, v := range h.netPins(e) {
				hbcnt[v]--
				s.updateBoundary(v, hbcnt[v] > 0)
			}
		}
	}
}

// hkwayRefine runs greedy k-way boundary refinement on the connectivity
// metric: repeated passes over the shared pass queue (startPasses),
// moving each node to the candidate partition that most reduces
// Σ w·(λ−1), subject to the balance caps. For a move u: from → q the
// gain reduces to
//
//	gain(q) = conn(q) − Σ_{e ∋ u: cnt(e, from) > 1} w(e)
//
// where conn(q) = Σ of w(e) over u's nets with a pin already in q: a
// net u is the last `from` pin of stops straddling from (+w) exactly
// when q already holds a pin (else the straddle just moves), and a net
// with other `from` pins grows λ (−w) exactly when q held none. Both
// terms come from one scan of u's net spans (scanNets), and the choice
// is pickMove's, as in kwayRefine.
func (s *Solver) hkwayRefine(h *HGraph, parts []int32, maxPasses int) {
	s.startPasses(h.NumNodes())
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
			baseNeg := s.scanNets(h, u, from)
			if best, _ := s.pickMove(from, h.NodeWeight(u), baseNeg); best >= 0 {
				s.hApplyMove(h, parts, u, from, best)
				// Re-queue the move's neighbourhood — every pin sharing a
				// net with u may have a changed gain.
				s.requeue(u)
				for _, e := range h.Nets[h.XNets[u]:h.XNets[u+1]] {
					for _, v := range h.netPins(e) {
						s.requeue(v)
					}
				}
			}
		}
	}
}

// hrebalance moves nodes out of overloaded partitions, each to
// rebalanceTarget's choice with connectivity counted over the node's net
// spans. It runs wherever rebalance does, and on the coarsest level too
// (hyperCut.initial).
func (s *Solver) hrebalance(h *HGraph, parts []int32, k int) {
	for _, u := range s.overloaded(parts, k) {
		from := parts[u]
		if s.pw[from] <= s.maxPW[from] {
			continue
		}
		s.scanNets(h, u, from)
		if best, _ := s.rebalanceTarget(from, h.NodeWeight(u), k); best >= 0 {
			s.hApplyMove(h, parts, u, from, best)
		}
	}
}

// scanNets adds the weight of each of u's nets to every part other than
// from that the net's span holds, into conn, listing those parts in
// touched. It returns Σ w(e) over u's nets with another pin in from —
// the nets a move off from adds a part to.
func (s *Solver) scanNets(h *HGraph, u, from int32) int64 {
	var baseNeg int64
	conn, touched := s.conn, s.touched[:0]
	for _, e := range h.Nets[h.XNets[u]:h.XNets[u+1]] {
		w := h.netWeight(e)
		for i, end := s.hpOff[e], s.hpOff[e]+s.hpLen[e]; i < end; i++ {
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
	s.touched = touched
	return baseNeg
}

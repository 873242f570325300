package metis

import (
	"fmt"
	"math"
)

// This file is the multilevel k-way driver (§4.2) that every cut runs
// through: coarsen by matching and contraction until the graph is small,
// split the coarsest level, then project the labels back up one level at
// a time, rebalancing and refining each. The clique edge cut (cliqueCut,
// kway.go) and the hypergraph connectivity cut (hyperCut, hkway.go)
// differ only in their kernels, which the driver reaches once per level
// through objective; everything per node — the matching's numbering, the
// boundary worklist, the refinement pass queue and rebalance's candidates
// and targets — is shared below as plain Solver methods.

// objective is one cut objective's kernels. Each works on the graph of
// its kind that the level holds (levelData.graph or levelData.hg) and on
// the Solver's shared refinement state.
type objective interface {
	nodes(lv *levelData) int
	totalWeight(lv *levelData) int64
	// match pairs lv's nodes, numbers the pairs into cmap and returns
	// the coarse node count.
	match(lv *levelData, cmap []int32) int
	// contract builds next's graph from lv's by cmap.
	contract(lv *levelData, cmap []int32, numCoarse int, next *levelData)
	// initial splits the coarsest level lv into k parts and seeds the
	// refinement state from that split, ready for refine.
	initial(lv *levelData, k int, parts []int32) error
	// seed computes the refinement state of lv's labels: part weights,
	// the objective's gain state and the boundary worklist.
	seed(lv *levelData, parts []int32, k int)
	// rebalance moves nodes out of parts over their caps.
	rebalance(lv *levelData, parts []int32, k int)
	// refine runs the boundary passes that lower the cut.
	refine(lv *levelData, parts []int32, k int)
	// cost is the cut of lv's labels, read off the refinement state.
	cost(lv *levelData) int64
}

// refinePasses bounds the refinement passes per level.
const refinePasses = 8

// coarsenTo is the node count at which coarsening for a k-way cut stops.
func coarsenTo(k int) int { return max(100, 15*k) }

// multilevel partitions level 0's graph into k parts under o and returns
// the label of every node with the cut's cost. The caller has put its
// graph in level 0. Output depends only on (graph, k, seed): the level
// storage and the refinement state are fully rewritten before they are
// read.
func (s *Solver) multilevel(o objective, k int, seed int64) ([]int32, int64, error) {
	if k < 1 {
		return nil, 0, fmt.Errorf("metis: k must be >= 1, got %d", k)
	}
	top := s.levels[0]
	n := o.nodes(top)
	parts := make([]int32, n)
	if k == 1 || n == 0 {
		return parts, 0, nil
	}
	if k >= n {
		// One node per part; the cost is read off refinement state
		// seeded for the n parts the labels use.
		for i := range parts {
			parts[i] = int32(i)
		}
		s.sizeRefineScratch(o.totalWeight(top), n)
		o.seed(top, parts, n)
		return parts, o.cost(top), nil
	}
	s.src.Seed(seed)
	// Balance caps are in total weight, invariant across levels.
	s.sizeRefineScratch(o.totalWeight(top), k)

	li := s.coarsen(o, coarsenTo(k)) - 1
	cparts := s.levelParts(li, parts, o.nodes(s.levels[li]))
	if err := o.initial(s.levels[li], k, cparts); err != nil {
		return nil, 0, err
	}
	o.refine(s.levels[li], cparts, k)
	// Project through each level's cmap and refine there; the boundary
	// worklist is reseeded from every projection.
	for li--; li >= 0; li-- {
		lv := s.levels[li]
		fparts := s.levelParts(li, parts, o.nodes(lv))
		for u, c := range lv.cmap[:len(fparts)] {
			fparts[u] = cparts[c]
		}
		s.refineLevel(o, lv, fparts, k)
		cparts = fparts
	}
	return parts, o.cost(top), nil
}

// refineLevel is the driver's step at every level but the coarsest:
// seed the refinement state from the projected labels, rebalance, refine.
// RefineHKway is this step alone, on the caller's labels.
func (s *Solver) refineLevel(o objective, lv *levelData, parts []int32, k int) {
	o.seed(lv, parts, k)
	o.rebalance(lv, parts, k)
	o.refine(lv, parts, k)
}

// refineInPlace is refineLevel applied to level 0 alone: it refines the
// caller's labels of level 0's graph in place and returns their cost.
func (s *Solver) refineInPlace(o objective, k int, seed int64, parts []int32) int64 {
	if k == 1 || len(parts) == 0 {
		clear(parts)
		return 0
	}
	s.src.Seed(seed)
	top := s.levels[0]
	s.sizeRefineScratch(o.totalWeight(top), k)
	s.refineLevel(o, top, parts, k)
	return o.cost(top)
}

// coarsen builds the hierarchy below level 0 by repeated matching and
// contraction until a level has at most coarsenTo nodes or matching
// stalls. It returns the number of levels (>= 1); s.levels[i].cmap maps
// level-i nodes to level-i+1 nodes.
func (s *Solver) coarsen(o objective, coarsenTo int) int {
	li := 0
	for lv := s.levels[0]; o.nodes(lv) > coarsenTo && li < 39; li++ {
		n := o.nodes(lv)
		lv.cmap = growI32(lv.cmap, n)
		numCoarse := o.match(lv, lv.cmap[:n])
		// Stall detection: if matching barely shrinks the graph (typical of
		// star-like graphs where most nodes share one hub), stop coarsening.
		if float64(numCoarse) > 0.95*float64(n) {
			break
		}
		next := s.level(li + 1)
		o.contract(lv, lv.cmap[:n], numCoarse, next)
		lv = next
	}
	return li + 1
}

// levelParts returns the n labels of level li: the caller's parts at
// level 0, else the level's own buffer.
func (s *Solver) levelParts(li int, parts []int32, n int) []int32 {
	if li == 0 {
		return parts
	}
	lv := s.levels[li]
	lv.parts = growI32(lv.parts, n)
	return lv.parts[:n]
}

// numberMatching assigns coarse ids to a matching (match[u] is u's mate,
// u itself for a singleton) in node order, writing them into cmap, and
// returns the coarse node count. Numbering in node order makes the
// coarse graph depend only on the matching, not on the visit order that
// found it.
func numberMatching(match, cmap []int32) int {
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for u := range cmap {
		if cmap[u] >= 0 {
			continue
		}
		cmap[u] = next
		if m := match[u]; int(m) != u && m >= 0 {
			cmap[m] = next
		}
		next++
	}
	return int(next)
}

// sizeRefineScratch sizes the k-dependent refinement scratch and fills
// the uniform targets and balance caps. conn must start all-zero:
// refinement maintains that invariant via sparse resets.
func (s *Solver) sizeRefineScratch(total int64, k int) {
	s.conn = growI64(s.conn, k)
	clear(s.conn)
	s.pw = growI64(s.pw, k)
	s.maxPW = growI64(s.maxPW, k)
	s.targets = growF64(s.targets, k)
	targets := s.targets[:k]
	for i := range targets {
		targets[i] = 1.0 / float64(k)
	}
	maxPW := s.maxPW[:k]
	for p := 0; p < k; p++ {
		m := int64(float64(total) * targets[p] * imbalance)
		// Always permit at least the ceiling of perfect balance so that a
		// feasible assignment exists even for tiny graphs.
		if ceil := (total + int64(k) - 1) / int64(k); m < ceil {
			m = ceil
		}
		maxPW[p] = m
	}
}

// updateBoundary reconciles u's worklist membership with whether it is
// on the boundary (a cut edge, or a net with λ > 1). Removal is a
// swap-delete through the bndPos index, so both directions are O(1).
func (s *Solver) updateBoundary(u int32, boundary bool) {
	if boundary {
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

// The greedy k-way refiners share one pass-queue discipline: the first
// pass visits the whole boundary, and later passes visit only nodes
// re-queued because a move changed their neighbourhood (the node itself
// or a neighbour moved), so converged regions cost nothing after pass
// one. Each pass visits its queue in a fresh shuffled order. A
// deliberate drift from a full sweep: a balance-blocked node far from
// any move is not retried when capacity frees up elsewhere; the quality
// tests bound the effect.

// startPasses queues the whole boundary of an n-node level for the
// first pass.
func (s *Solver) startPasses(n int) {
	s.queued = growBool(s.queued, n)
	clear(s.queued[:n])
	s.nextList = append(growI32(s.nextList, len(s.bndList))[:0], s.bndList...)
	for _, u := range s.nextList {
		s.queued[u] = true
	}
}

// nextPass returns the nodes queued for the next pass, shuffled, and
// starts an empty queue for the one after.
func (s *Solver) nextPass() []int32 {
	s.passList, s.nextList = s.nextList, s.passList[:0]
	s.shuffle(s.passList)
	return s.passList
}

// dequeue takes u off the queue and reports whether it is still on the
// boundary, and so worth visiting.
func (s *Solver) dequeue(u int32) bool {
	s.queued[u] = false
	return s.bndPos[u] >= 0
}

// requeue queues v for the next pass if it is on the boundary and not
// queued already.
func (s *Solver) requeue(v int32) {
	if s.bndPos[v] >= 0 && !s.queued[v] {
		s.queued[v] = true
		s.nextList = append(s.nextList, v)
	}
}

// overloaded returns the rebalance candidates of a level, shuffled: the
// nodes of the parts over their caps, collected in one O(N) id scan with
// no per-node connectivity work. It returns nil when no part is over.
func (s *Solver) overloaded(parts []int32, k int) []int32 {
	over := false
	for p := 0; p < k; p++ {
		if s.pw[p] > s.maxPW[p] {
			over = true
			break
		}
	}
	if !over {
		return nil
	}
	s.overList = s.overList[:0]
	for u, p := range parts {
		if s.pw[p] > s.maxPW[p] {
			s.overList = append(s.overList, int32(u))
		}
	}
	s.shuffle(s.overList)
	return s.overList
}

// pickMove is the greedy refiners' move choice for a node of weight w in
// part from, once a scan has filled conn and touched: of the touched
// parts other than from that have room, the one of highest gain
// conn[p] − base. A negative gain is never taken — rebalance handles
// overload with such moves — and a zero gain only as the first
// acceptable move and only when it strictly improves balance. It returns
// the part (-1 for none) and the node's connectivity to it, and clears
// conn for the next scan.
func (s *Solver) pickMove(from int32, w, base int64) (int32, int64) {
	best, bestGain := int32(-1), int64(0)
	for _, p := range s.touched {
		if p == from || s.pw[p]+w > s.maxPW[p] {
			continue
		}
		gain := s.conn[p] - base
		switch {
		case gain < 0:
		case best < 0 && (gain > 0 || s.pw[p]+w < s.pw[from]):
			best, bestGain = p, gain
		case best >= 0 && gain > bestGain:
			best, bestGain = p, gain
		}
	}
	return best, s.clearConn(best)
}

// rebalanceTarget picks where a rebalance moves a node of weight w out
// of part from, once a scan has filled conn and touched: the touched
// part with room the node is most connected to (the least cut damage),
// else the least-loaded part with room. It returns the part (-1 for
// none) and the node's connectivity to it, and clears conn for the next
// scan.
func (s *Solver) rebalanceTarget(from int32, w int64, k int) (int32, int64) {
	best, bestConn := int32(-1), int64(-1)
	for _, p := range s.touched {
		if p != from && s.pw[p]+w <= s.maxPW[p] && s.conn[p] > bestConn {
			best, bestConn = p, s.conn[p]
		}
	}
	if best < 0 {
		minLoad := int64(math.MaxInt64)
		for p := int32(0); int(p) < k; p++ {
			if p != from && s.pw[p]+w <= s.maxPW[p] && s.pw[p] < minLoad {
				best, minLoad = p, s.pw[p]
			}
		}
	}
	return best, s.clearConn(best)
}

// clearConn returns conn[best] (0 for best < 0) and zeroes the touched
// parts' conn, restoring its all-zero invariant.
func (s *Solver) clearConn(best int32) int64 {
	var c int64
	if best >= 0 {
		c = s.conn[best]
	}
	for _, p := range s.touched {
		s.conn[p] = 0
	}
	return c
}

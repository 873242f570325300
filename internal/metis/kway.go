package metis

import "fmt"

// Options control the partitioner.
type Options struct {
	// Seed drives all randomised decisions; equal seeds give equal output.
	Seed int64
}

// imbalance is the permitted load factor per partition relative to
// perfect balance (METIS ufactor): 1.05 allows 5% overload.
const imbalance = 1.05

// refinePasses bounds the refinement passes per level.
const refinePasses = 8

// coarsenTo is the node count at which coarsening for a k-way cut stops.
func coarsenTo(k int) int { return max(100, 15*k) }

// PartKway partitions g into k balanced parts minimising the weighted edge
// cut, in the style of METIS kmetis (§4.2 of the Schism paper). It returns
// the partition label of every node and the achieved edge cut.
//
// Each call runs on a fresh Solver whose scratch — the whole coarse
// hierarchy — is garbage when it returns, so nothing outlives the call
// and what a call costs does not depend on the calls before it. Callers
// that partition repeatedly hold their own Solver. Output depends only
// on (g, k, opts), never on GOMAXPROCS.
func PartKway(g *Graph, k int, opts Options) ([]int32, int64, error) {
	return NewSolver().PartKway(g, k, opts)
}

// PartKway is the context-reusing form of the package-level PartKway:
// every scratch buffer the multilevel pipeline needs lives in the Solver
// and is recycled across calls. Equal (g, k, opts) give byte-identical
// results whether the Solver is fresh or reused.
func (s *Solver) PartKway(g *Graph, k int, opts Options) ([]int32, int64, error) {
	n := g.NumNodes()
	if k < 1 {
		return nil, 0, fmt.Errorf("metis: k must be >= 1, got %d", k)
	}
	parts := make([]int32, n)
	if k == 1 || n == 0 {
		return parts, 0, nil
	}
	if k >= n {
		for i := range parts {
			parts[i] = int32(i)
		}
		return parts, g.EdgeCut(parts), nil
	}
	s.src.Seed(opts.Seed)

	// Size the k-dependent scratch. conn must start all-zero: refinement
	// maintains that invariant via sparse resets.
	s.conn = growI64(s.conn, k)
	for i := range s.conn {
		s.conn[i] = 0
	}
	s.pw = growI64(s.pw, k)
	s.maxPW = growI64(s.maxPW, k)

	numLevels := s.coarsen(g, coarsenTo(k))
	coarsest := s.levelGraph(g, numLevels-1)

	s.targets = growF64(s.targets, k)
	targets := s.targets[:k]
	for i := range targets {
		targets[i] = 1.0 / float64(k)
	}

	cparts := parts
	if numLevels > 1 {
		lv := s.levels[numLevels-1]
		lv.parts = growI32(lv.parts, coarsest.NumNodes())
		cparts = lv.parts[:coarsest.NumNodes()]
	}
	s.initialPartition(coarsest, k, targets, cparts)

	total := g.TotalNodeWeight()
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

	// Refine at the coarsest level, then project and refine at each finer
	// level. Balance caps are expressed in total weight, which is invariant
	// across levels; the boundary worklist is reseeded from the cut edges
	// of each projection. Bisections get boundary-restricted FM (hill
	// climbing with rollback); k > 2 gets the greedy boundary pass.
	refine := func(lg *Graph, lparts []int32) {
		if k == 2 {
			s.fmRefine2(lg, lparts, refinePasses)
		} else {
			s.kwayRefine(lg, lparts, k, refinePasses)
		}
	}
	s.seedRefinement(coarsest, cparts, k)
	refine(coarsest, cparts)
	for li := numLevels - 2; li >= 0; li-- {
		fg := s.levelGraph(g, li)
		fn := fg.NumNodes()
		fparts := parts
		if li > 0 {
			lv := s.levels[li]
			lv.parts = growI32(lv.parts, fn)
			fparts = lv.parts[:fn]
		}
		cmap := s.levels[li].cmap[:fn]
		for u := 0; u < fn; u++ {
			fparts[u] = cparts[cmap[u]]
		}
		s.seedRefinement(fg, fparts, k)
		s.rebalance(fg, fparts, k)
		refine(fg, fparts)
		cparts = fparts
	}
	// The refinement loop left s.ed consistent for the finest level, so
	// the cut is half the external-degree sum — no O(E) recount. The
	// partitioner tests re-verify this against Graph.EdgeCut.
	var cut int64
	for _, e := range s.ed[:n] {
		cut += e
	}
	return parts, cut / 2, nil
}

package metis

import "fmt"

// PartHKway partitions the hypergraph h into k balanced parts minimising
// the connectivity metric Σ w(e)·(λ(e)−1) — the number of extra
// partitions each transaction straddles, which is what the clique-cut
// objective approximates. It returns the partition label of every node
// and the achieved connectivity cost.
//
// Like PartKway, each call runs on a fresh Solver; callers that
// partition repeatedly hold their own. Output depends only on
// (h, k, opts), never on GOMAXPROCS.
func PartHKway(h *HGraph, k int, opts Options) ([]int32, int64, error) {
	return NewSolver().PartHKway(h, k, opts)
}

// PartHKway is the context-reusing form of the package-level PartHKway,
// following the PartKway multilevel shape: heavy-connectivity coarsening
// over pins, initial partitioning by the existing recursive bisection on
// a clique expansion of the *coarsest* hypergraph (small, so expansion
// is cheap there), and λ−1 boundary refinement during uncoarsening.
// Equal (h, k, opts) give byte-identical results whether the Solver is
// fresh or reused.
func (s *Solver) PartHKway(h *HGraph, k int, opts Options) ([]int32, int64, error) {
	n := h.NumNodes()
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
		return parts, h.ConnectivityCost(parts, n), nil
	}
	s.src.Seed(opts.Seed)

	s.sizeRefineScratch(h.TotalNodeWeight(), k)

	numLevels := s.hcoarsen(h, coarsenTo(k))
	coarsest := s.hlevelGraph(h, numLevels-1)

	cparts := parts
	if numLevels > 1 {
		lv := s.hlevels[numLevels-1]
		lv.parts = growI32(lv.parts, coarsest.NumNodes())
		cparts = lv.parts[:coarsest.NumNodes()]
	}
	cg, err := s.cliqueExpandCoarsest(coarsest)
	if err != nil {
		return nil, 0, err
	}
	s.initialPartition(cg, k, s.targets[:k], cparts)

	// Refine at the coarsest level, then project and refine at each finer
	// level; balance caps are in total weight, invariant across levels.
	// The initial partition came from a clique approximation of the
	// coarsest hypergraph, so it may violate the caps slightly —
	// hrebalance runs at every level, including the coarsest.
	s.hseedRefinement(coarsest, cparts, k)
	s.hrebalance(coarsest, cparts, k)
	s.hkwayRefine(coarsest, cparts, k, refinePasses)
	for li := numLevels - 2; li >= 0; li-- {
		fh := s.hlevelGraph(h, li)
		fn := fh.NumNodes()
		fparts := parts
		if li > 0 {
			lv := s.hlevels[li]
			lv.parts = growI32(lv.parts, fn)
			fparts = lv.parts[:fn]
		}
		cmap := s.hlevels[li].cmap[:fn]
		for u := 0; u < fn; u++ {
			fparts[u] = cparts[cmap[u]]
		}
		s.hseedRefinement(fh, fparts, k)
		s.hrebalance(fh, fparts, k)
		s.hkwayRefine(fh, fparts, k, refinePasses)
		cparts = fparts
	}
	// The refinement state holds each finest-level net's λ in hpLen, so
	// the cost is one O(nets) sum — no O(pins) recount. The partitioner
	// tests re-verify this against HGraph.ConnectivityCost.
	var cost int64
	for e := int32(0); int(e) < h.NumNets(); e++ {
		if lambda := int64(s.hpLen[e]); lambda > 1 {
			cost += h.netWeight(e) * (lambda - 1)
		}
	}
	return parts, cost, nil
}

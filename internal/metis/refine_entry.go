package metis

import "fmt"

// This file adds the warm-start entry points of the partitioner: refine
// a caller-supplied k-way assignment without rebuilding the multilevel
// hierarchy. live.Repartitioner, their one caller, seeds them by
// projecting the deployed placement onto a fresh window's graph, so a
// steady-state repartitioning cycle costs one boundary-restricted
// refinement pass instead of the full coarsen → bisect → uncoarsen
// pipeline. The refinement machinery is exactly the finest-level half of
// PartKway/PartHKway — seedRefinement, rebalance, and the boundary
// worklist passes — so warm and cold cycles share every invariant and
// differ only in where the initial labels come from.

// RefineKway refines a caller-supplied assignment of g into k parts in
// place: it seeds the boundary worklist from the cut edges of parts,
// rebalances any partition over the Imbalance cap, and runs the same
// boundary-restricted refinement passes PartKway runs at its finest
// level. It returns the achieved edge cut. Every label must already be
// in [0, k); out-of-range labels are an error, not clamped, because a
// clamp would silently concentrate unknown nodes on partition 0.
//
// Output depends only on (g, k, parts, opts) — never on Solver state or
// GOMAXPROCS — and the refined assignment's cut is never worse than what
// rebalancing the input to feasibility allows.
func (s *Solver) RefineKway(g *Graph, k int, parts []int32, opts Options) (int64, error) {
	n := g.NumNodes()
	if err := checkRefineInput(n, k, parts); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	if k == 1 {
		for i := range parts {
			parts[i] = 0
		}
		return 0, nil
	}
	opts = opts.withDefaults(k)
	s.src.Seed(opts.Seed)
	s.sizeRefineScratch(g.TotalNodeWeight(), k, opts.Imbalance)

	s.seedRefinement(g, parts, k)
	s.rebalance(g, parts, k)
	if k == 2 {
		s.fmRefine2(g, parts, opts.Passes)
	} else {
		s.kwayRefine(g, parts, k, opts.Passes)
	}
	var cut int64
	for _, e := range s.ed[:n] {
		cut += e
	}
	return cut / 2, nil
}

// RefineHKway is RefineKway's hypergraph twin: refine a caller-supplied
// assignment of h into k parts in place on the connectivity metric
// Σ w(e)·(λ(e)−1), using the per-net span state and λ−1 boundary passes
// of PartHKway's finest level. It returns the achieved connectivity
// cost. The same label-range and determinism contracts apply.
func (s *Solver) RefineHKway(h *HGraph, k int, parts []int32, opts Options) (int64, error) {
	n := h.NumNodes()
	if err := checkRefineInput(n, k, parts); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	if k == 1 {
		for i := range parts {
			parts[i] = 0
		}
		return 0, nil
	}
	opts = opts.withDefaults(k)
	s.src.Seed(opts.Seed)
	s.sizeRefineScratch(h.TotalNodeWeight(), k, opts.Imbalance)

	s.hseedRefinement(h, parts, k)
	s.hrebalance(h, parts, k)
	s.hkwayRefine(h, parts, k, opts.Passes)
	var cost int64
	for e := int32(0); int(e) < h.NumNets(); e++ {
		if lambda := int64(s.hpLen[e]); lambda > 1 {
			cost += h.netWeight(e) * (lambda - 1)
		}
	}
	return cost, nil
}

// checkRefineInput validates the shared warm-start preconditions.
func checkRefineInput(n, k int, parts []int32) error {
	if k < 1 {
		return fmt.Errorf("metis: k must be >= 1, got %d", k)
	}
	if len(parts) != n {
		return fmt.Errorf("metis: initial assignment has %d labels for %d nodes", len(parts), n)
	}
	if k == 1 {
		return nil
	}
	for i, p := range parts {
		if p < 0 || int(p) >= k {
			return fmt.Errorf("metis: initial label %d of node %d outside [0, %d)", p, i, k)
		}
	}
	return nil
}

// sizeRefineScratch sizes the k-dependent refinement scratch and fills
// the balance caps, mirroring the setup PartKway/PartHKway perform
// before their own refinement. conn must start all-zero: refinement
// maintains that invariant via sparse resets.
func (s *Solver) sizeRefineScratch(total int64, k int, imbalance float64) {
	s.conn = growI64(s.conn, k)
	for i := range s.conn {
		s.conn[i] = 0
	}
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

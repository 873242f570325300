package metis

import "fmt"

// This file adds the warm-start entry point of the partitioner: refine a
// caller-supplied k-way assignment of a hypergraph without rebuilding the
// multilevel hierarchy. live.Repartitioner, its one caller, seeds it by
// projecting the deployed placement onto a fresh window's hypergraph, so
// a steady-state repartitioning cycle costs one boundary-restricted
// refinement pass instead of the full coarsen → bisect → uncoarsen
// pipeline. The refinement machinery is exactly the finest-level half of
// PartHKway — hseedRefinement, hrebalance, and the λ−1 boundary passes —
// so warm and cold cycles share every invariant and differ only in where
// the initial labels come from.

// RefineHKway refines a caller-supplied assignment of h into k parts in
// place on the connectivity metric Σ w(e)·(λ(e)−1): it seeds the per-net
// span state and boundary worklist from parts, rebalances any partition
// over the Imbalance cap, and runs the same λ−1 boundary passes PartHKway
// runs at its finest level. It returns the achieved connectivity cost.
// Every label must already be in [0, k); out-of-range labels are an
// error, not clamped, because a clamp would silently concentrate unknown
// nodes on partition 0.
//
// Output depends only on (h, k, parts, opts) — never on Solver state or
// GOMAXPROCS.
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
	opts = opts.withDefaults()
	s.src.Seed(opts.Seed)
	s.sizeRefineScratch(h.TotalNodeWeight(), k, opts.Imbalance)

	s.hseedRefinement(h, parts, k)
	s.hrebalance(h, parts, k)
	s.hkwayRefine(h, parts, k, refinePasses)
	var cost int64
	for e := int32(0); int(e) < h.NumNets(); e++ {
		if lambda := int64(s.hpLen[e]); lambda > 1 {
			cost += h.netWeight(e) * (lambda - 1)
		}
	}
	return cost, nil
}

// checkRefineInput validates the warm-start preconditions.
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
// the uniform targets and balance caps for PartHKway and RefineHKway
// (PartKway does the same inline). conn must start all-zero: refinement
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

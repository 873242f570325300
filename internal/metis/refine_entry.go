package metis

import "fmt"

// This file adds the warm-start entry point of the partitioner: refine a
// caller-supplied k-way assignment of a hypergraph without rebuilding the
// multilevel hierarchy. live.Repartitioner, its one caller, seeds it by
// projecting the deployed placement onto a fresh window's hypergraph, so
// a steady-state repartitioning cycle costs one boundary-restricted
// refinement pass instead of the full coarsen → bisect → uncoarsen
// pipeline. It is the multilevel driver's per-level step — hseedRefinement,
// hrebalance, and the λ−1 boundary passes — on the finest level alone, so
// warm and cold cycles share every invariant and differ only in where the
// initial labels come from.

// RefineHKway refines a caller-supplied assignment of h into k parts in
// place on the connectivity metric Σ w(e)·(λ(e)−1): it seeds the per-net
// span state and boundary worklist from parts, rebalances any partition
// over the imbalance cap, and runs the same λ−1 boundary passes PartHKway
// runs at its finest level. It returns the achieved connectivity cost.
// Every label must already be in [0, k); out-of-range labels are an
// error, not clamped, because a clamp would silently concentrate unknown
// nodes on partition 0.
//
// Output depends only on (h, k, parts, opts) — never on Solver state or
// GOMAXPROCS.
func (s *Solver) RefineHKway(h *HGraph, k int, parts []int32, opts Options) (int64, error) {
	if err := checkRefineInput(h.NumNodes(), k, parts); err != nil {
		return 0, err
	}
	s.level(0).hg = *h
	defer s.release()
	return s.refineInPlace(hyperCut{s}, k, opts.Seed, parts), nil
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

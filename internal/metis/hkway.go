package metis

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
// the same multilevel driver as PartKway: heavy-connectivity coarsening
// over pins, initial partitioning by the recursive bisection of a clique
// expansion of the *coarsest* hypergraph (small, so expansion is cheap
// there), and λ−1 boundary refinement during uncoarsening. Equal
// (h, k, opts) give byte-identical results whether the Solver is fresh or
// reused.
func (s *Solver) PartHKway(h *HGraph, k int, opts Options) ([]int32, int64, error) {
	s.level(0).hg = *h
	defer s.release()
	return s.multilevel(hyperCut{s}, k, opts.Seed)
}

// hyperCut is the connectivity (λ−1) objective over hypergraphs.
type hyperCut struct{ s *Solver }

func (c hyperCut) nodes(lv *levelData) int         { return lv.hg.NumNodes() }
func (c hyperCut) totalWeight(lv *levelData) int64 { return lv.hg.TotalNodeWeight() }

func (c hyperCut) match(lv *levelData, cmap []int32) int {
	return c.s.hconnMatch(&lv.hg, cmap)
}

func (c hyperCut) contract(lv *levelData, cmap []int32, numCoarse int, next *levelData) {
	c.s.hcontract(&lv.hg, cmap, numCoarse, next)
}

// initial bisects the coarsest hypergraph's clique expansion. A split of
// that approximation may break the caps on the hypergraph itself, so —
// unlike the clique cut's initial split — it is rebalanced before the
// coarsest level is refined.
func (c hyperCut) initial(lv *levelData, k int, parts []int32) error {
	cg, err := c.s.cliqueExpandCoarsest(&lv.hg)
	if err != nil {
		return err
	}
	c.s.initialPartition(cg, k, c.s.targets[:k], parts)
	c.seed(lv, parts, k)
	c.rebalance(lv, parts, k)
	return nil
}

func (c hyperCut) seed(lv *levelData, parts []int32, k int) {
	c.s.hseedRefinement(&lv.hg, parts, k)
}

func (c hyperCut) rebalance(lv *levelData, parts []int32, k int) {
	c.s.hrebalance(&lv.hg, parts, k)
}

func (c hyperCut) refine(lv *levelData, parts []int32, k int) {
	c.s.hkwayRefine(&lv.hg, parts, refinePasses)
}

// cost sums w·(λ−1) over the nets, each λ the live length of the net's
// span — one O(nets) pass, no O(pins) recount. The partitioner tests
// re-verify it against HGraph.ConnectivityCost.
func (c hyperCut) cost(lv *levelData) int64 {
	h := &lv.hg
	var cost int64
	for e := int32(0); int(e) < h.NumNets(); e++ {
		if lambda := int64(c.s.hpLen[e]); lambda > 1 {
			cost += h.netWeight(e) * (lambda - 1)
		}
	}
	return cost
}

package metis

// Options control the partitioner.
type Options struct {
	// Seed drives all randomised decisions; equal seeds give equal output.
	Seed int64
}

// imbalance is the permitted load factor per partition relative to
// perfect balance (METIS ufactor): 1.05 allows 5% overload.
const imbalance = 1.05

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
	s.level(0).graph = *g
	defer s.release()
	return s.multilevel(cliqueCut{s}, k, opts.Seed)
}

// cliqueCut is the edge-cut objective over clique graphs: heavy-edge
// matching, CSR contraction, recursive bisection of the coarsest graph,
// and external-degree refinement — boundary FM for bisections, where
// greedy positive-gain moves get stuck on plateaus, and the greedy
// boundary pass for k > 2.
type cliqueCut struct{ s *Solver }

func (c cliqueCut) nodes(lv *levelData) int         { return lv.graph.NumNodes() }
func (c cliqueCut) totalWeight(lv *levelData) int64 { return lv.graph.TotalNodeWeight() }

func (c cliqueCut) match(lv *levelData, cmap []int32) int {
	return c.s.heavyEdgeMatch(&lv.graph, cmap)
}

func (c cliqueCut) contract(lv *levelData, cmap []int32, numCoarse int, next *levelData) {
	c.s.contract(&lv.graph, cmap, numCoarse, next)
}

func (c cliqueCut) initial(lv *levelData, k int, parts []int32) error {
	c.s.initialPartition(&lv.graph, k, c.s.targets[:k], parts)
	c.s.seedRefinement(&lv.graph, parts, k)
	return nil
}

func (c cliqueCut) seed(lv *levelData, parts []int32, k int) {
	c.s.seedRefinement(&lv.graph, parts, k)
}

func (c cliqueCut) rebalance(lv *levelData, parts []int32, k int) {
	c.s.rebalance(&lv.graph, parts, k)
}

func (c cliqueCut) refine(lv *levelData, parts []int32, k int) {
	if k == 2 {
		c.s.fmRefine2(&lv.graph, parts, refinePasses)
	} else {
		c.s.kwayRefine(&lv.graph, parts, refinePasses)
	}
}

// cost is half the external-degree sum, which refinement keeps
// consistent — no O(E) recount. The partitioner tests re-verify it
// against Graph.EdgeCut.
func (c cliqueCut) cost(lv *levelData) int64 {
	var cut int64
	for _, e := range c.s.ed[:lv.graph.NumNodes()] {
		cut += e
	}
	return cut / 2
}

package metis

// The pre-boundary-worklist partitioner, kept verbatim as the reference
// implementation: full-sweep refinement passes (rng.Perm over all n nodes
// per pass), BuilderEdge+NewGraph contraction, map-based induce, and
// container/heap priority queues. The quality tests in solver_test.go pin
// the boundary-driven solver's edge cut against this reference across a
// workload/seed/k matrix, and TestContractMatchesNaive pins contraction
// to be bit-identical.

import (
	"container/heap"
	"math/rand"
)

// naivePartKway is the old multilevel driver.
func naivePartKway(g *Graph, k int, opts Options) ([]int32, int64, error) {
	n := g.NumNodes()
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
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))

	levels := naiveCoarsen(g, coarsenTo(k), rng)
	coarsest := levels[len(levels)-1].g

	targets := make([]float64, k)
	for i := range targets {
		targets[i] = 1.0 / float64(k)
	}
	cparts := naiveInitialPartition(coarsest, k, targets, opts.Imbalance, rng)

	total := g.TotalNodeWeight()
	maxPW := make([]int64, k)
	for p := 0; p < k; p++ {
		m := int64(float64(total) * targets[p] * opts.Imbalance)
		if ceil := (total + int64(k) - 1) / int64(k); m < ceil {
			m = ceil
		}
		maxPW[p] = m
	}

	naiveKwayRefine(coarsest, cparts, k, maxPW, refinePasses, rng)
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		fparts := make([]int32, fine.g.NumNodes())
		for u := range fparts {
			fparts[u] = cparts[fine.cmap[u]]
		}
		naiveRebalance(fine.g, fparts, k, maxPW, rng)
		naiveKwayRefine(fine.g, fparts, k, maxPW, refinePasses, rng)
		cparts = fparts
	}
	return cparts, g.EdgeCut(cparts), nil
}

type naiveLevel struct {
	g    *Graph
	cmap []int32
}

func naiveCoarsen(g *Graph, coarsenTo int, rng *rand.Rand) []*naiveLevel {
	levels := []*naiveLevel{{g: g}}
	cur := g
	for cur.NumNodes() > coarsenTo && len(levels) < 40 {
		cmap, numCoarse := naiveHeavyEdgeMatch(cur, rng)
		if float64(numCoarse) > 0.95*float64(cur.NumNodes()) {
			break
		}
		coarse := naiveContract(cur, cmap, numCoarse)
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, &naiveLevel{g: coarse})
		cur = coarse
	}
	return levels
}

func naiveHeavyEdgeMatch(g *Graph, rng *rand.Rand) (cmap []int32, numCoarse int) {
	n := g.NumNodes()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, ui := range order {
		u := int32(ui)
		if match[u] >= 0 {
			continue
		}
		best := int32(-1)
		var bestW int64 = -1
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			v := g.Adj[j]
			if match[v] >= 0 || v == u {
				continue
			}
			if w := g.edgeWeight(j); w > bestW {
				bestW, best = w, v
			}
		}
		if best >= 0 {
			match[u], match[best] = best, u
		} else {
			match[u] = u
		}
	}
	cmap = make([]int32, n)
	for i := range cmap {
		cmap[i] = -1
	}
	next := int32(0)
	for u := int32(0); int(u) < n; u++ {
		if cmap[u] >= 0 {
			continue
		}
		cmap[u] = next
		if m := match[u]; m != u && m >= 0 {
			cmap[m] = next
		}
		next++
	}
	return cmap, int(next)
}

// naiveContract accumulates coarse BuilderEdges and pays NewGraph's two
// counting-sort passes per level.
func naiveContract(g *Graph, cmap []int32, numCoarse int) *Graph {
	n := g.NumNodes()
	nwgt := make([]int64, numCoarse)
	for i := 0; i < n; i++ {
		nwgt[cmap[i]] += g.NodeWeight(int32(i))
	}
	var edges []BuilderEdge
	for u := int32(0); int(u) < n; u++ {
		cu := cmap[u]
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			cv := cmap[g.Adj[j]]
			if cu < cv {
				edges = append(edges, BuilderEdge{U: cu, V: cv, Weight: g.edgeWeight(j)})
			}
		}
	}
	return mustGraph(NewGraph(numCoarse, edges, nwgt))
}

func naiveInitialPartition(g *Graph, k int, targets []float64, imbalance float64, rng *rand.Rand) []int32 {
	parts := make([]int32, g.NumNodes())
	nodes := make([]int32, g.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	naiveRecursiveBisect(g, nodes, 0, k, targets, imbalance, rng, parts)
	return parts
}

func naiveRecursiveBisect(g *Graph, nodes []int32, firstPart, k int, targets []float64, imbalance float64, rng *rand.Rand, parts []int32) {
	if k == 1 {
		for _, u := range nodes {
			parts[u] = int32(firstPart)
		}
		return
	}
	kL := (k + 1) / 2
	kR := k - kL
	var fracL, fracAll float64
	for i := 0; i < k; i++ {
		fracAll += targets[firstPart+i]
	}
	for i := 0; i < kL; i++ {
		fracL += targets[firstPart+i]
	}
	if fracAll <= 0 {
		fracAll = 1
	}
	sub := naiveInduce(g, nodes)
	side := naiveBisect(sub, fracL/fracAll, imbalance, rng)
	var left, right []int32
	for i, u := range nodes {
		if side[i] == 0 {
			left = append(left, u)
		} else {
			right = append(right, u)
		}
	}
	naiveRecursiveBisect(g, left, firstPart, kL, targets, imbalance, rng, parts)
	naiveRecursiveBisect(g, right, firstPart+kL, kR, targets, imbalance, rng, parts)
}

// naiveInduce maps subset membership through a map and rebuilds through
// NewGraph.
func naiveInduce(g *Graph, nodes []int32) *Graph {
	local := make(map[int32]int32, len(nodes))
	for i, u := range nodes {
		local[u] = int32(i)
	}
	nwgt := make([]int64, len(nodes))
	var edges []BuilderEdge
	for i, u := range nodes {
		nwgt[i] = g.NodeWeight(u)
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			v := g.Adj[j]
			lv, ok := local[v]
			if !ok || lv <= int32(i) {
				continue
			}
			edges = append(edges, BuilderEdge{U: int32(i), V: lv, Weight: g.edgeWeight(j)})
		}
	}
	return mustGraph(NewGraph(len(nodes), edges, nwgt))
}

func naiveBisect(g *Graph, fracL, imbalance float64, rng *rand.Rand) []int32 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	total := g.TotalNodeWeight()
	target := int64(float64(total) * fracL)
	var bestSide []int32
	var bestCut int64 = -1
	for try := 0; try < ggAttempts; try++ {
		side := naiveGrowRegion(g, target, rng)
		naiveFMRefineBisection(g, side, target, total, imbalance, 4)
		cut := g.EdgeCut(side)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			bestSide = side
		}
	}
	return bestSide
}

func naiveGrowRegion(g *Graph, target int64, rng *rand.Rand) []int32 {
	n := g.NumNodes()
	side := make([]int32, n)
	for i := range side {
		side[i] = 1
	}
	if target <= 0 {
		return side
	}
	inRegion := make([]bool, n)
	conn := make([]int64, n)
	pq := &refHeap{}
	var regionW int64
	addNode := func(u int32) {
		inRegion[u] = true
		side[u] = 0
		regionW += g.NodeWeight(u)
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			v := g.Adj[j]
			if inRegion[v] {
				continue
			}
			conn[v] += g.edgeWeight(j)
			heap.Push(pq, nodeEntry{node: v, key: conn[v]})
		}
	}
	perm := rng.Perm(n)
	pi := 0
	nextSeed := func() int32 {
		for pi < n {
			u := int32(perm[pi])
			pi++
			if !inRegion[u] {
				return u
			}
		}
		return -1
	}
	for regionW < target {
		var u int32 = -1
		for pq.Len() > 0 {
			e := heap.Pop(pq).(nodeEntry)
			if !inRegion[e.node] && conn[e.node] == e.key {
				u = e.node
				break
			}
		}
		if u < 0 {
			if u = nextSeed(); u < 0 {
				break
			}
		}
		addNode(u)
	}
	return side
}

// refHeap is the old container/heap max-heap (interface boxing and all).
type refHeap []nodeEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].key > h[j].key }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(nodeEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func naiveFMRefineBisection(g *Graph, side []int32, targetL, total int64, imbalance float64, maxPasses int) {
	n := g.NumNodes()
	maxL := int64(float64(targetL) * imbalance)
	maxR := int64(float64(total-targetL) * imbalance)
	if maxL < targetL {
		maxL = targetL
	}
	if maxR < total-targetL {
		maxR = total - targetL
	}
	weights := [2]int64{}
	for i := 0; i < n; i++ {
		weights[side[i]] += g.NodeWeight(int32(i))
	}
	gain := make([]int64, n)
	computeGain := func(u int32) int64 {
		var ext, intl int64
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			if side[g.Adj[j]] == side[u] {
				intl += g.edgeWeight(j)
			} else {
				ext += g.edgeWeight(j)
			}
		}
		return ext - intl
	}
	for pass := 0; pass < maxPasses; pass++ {
		locked := make([]bool, n)
		pq := &refHeap{}
		for u := int32(0); int(u) < n; u++ {
			gain[u] = computeGain(u)
			heap.Push(pq, nodeEntry{node: u, key: gain[u]})
		}
		var moves []moveRec
		var cum, best int64
		bestIdx := -1
		for pq.Len() > 0 {
			e := heap.Pop(pq).(nodeEntry)
			u := e.node
			if locked[u] || gain[u] != e.key {
				continue
			}
			from := side[u]
			to := 1 - from
			w := g.NodeWeight(u)
			destMax := maxR
			if to == 0 {
				destMax = maxL
			}
			srcOver := (from == 0 && weights[0] > maxL) || (from == 1 && weights[1] > maxR)
			if weights[to]+w > destMax && !srcOver {
				continue
			}
			side[u] = to
			weights[from] -= w
			weights[to] += w
			locked[u] = true
			cum += gain[u]
			moves = append(moves, moveRec{node: u, from: from})
			if cum > best {
				best = cum
				bestIdx = len(moves) - 1
			}
			for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
				v := g.Adj[j]
				if locked[v] {
					continue
				}
				gain[v] = computeGain(v)
				heap.Push(pq, nodeEntry{node: v, key: gain[v]})
			}
		}
		for i := len(moves) - 1; i > bestIdx; i-- {
			m := moves[i]
			w := g.NodeWeight(m.node)
			weights[side[m.node]] -= w
			weights[m.from] += w
			side[m.node] = m.from
		}
		if best <= 0 {
			break
		}
	}
}

// naiveKwayRefine sweeps all n nodes per pass in rng.Perm order.
func naiveKwayRefine(g *Graph, parts []int32, k int, maxPW []int64, maxPasses int, rng *rand.Rand) {
	n := g.NumNodes()
	pw := g.PartWeights(parts, k)
	conn := make([]int64, k)
	touched := make([]int32, 0, 16)
	for pass := 0; pass < maxPasses; pass++ {
		moved := 0
		order := rng.Perm(n)
		for _, ui := range order {
			u := int32(ui)
			from := parts[u]
			boundary := false
			touched = touched[:0]
			for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
				p := parts[g.Adj[j]]
				if conn[p] == 0 {
					touched = append(touched, p)
				}
				conn[p] += g.edgeWeight(j)
				if p != from {
					boundary = true
				}
			}
			if !boundary {
				for _, p := range touched {
					conn[p] = 0
				}
				continue
			}
			w := g.NodeWeight(u)
			var best int32 = -1
			var bestGain int64
			for _, p := range touched {
				if p == from || pw[p]+w > maxPW[p] {
					continue
				}
				gain := conn[p] - conn[from]
				switch {
				case gain < 0:
				case best < 0 && (gain > 0 || pw[p]+w < pw[from]):
					best, bestGain = p, gain
				case best >= 0 && gain > bestGain:
					best, bestGain = p, gain
				}
			}
			for _, p := range touched {
				conn[p] = 0
			}
			if best >= 0 {
				parts[u] = best
				pw[from] -= w
				pw[best] += w
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}

// naiveRebalance sweeps all n nodes in rng.Perm order looking for
// overloaded sources.
func naiveRebalance(g *Graph, parts []int32, k int, maxPW []int64, rng *rand.Rand) {
	n := g.NumNodes()
	pw := g.PartWeights(parts, k)
	over := false
	for p := 0; p < k; p++ {
		if pw[p] > maxPW[p] {
			over = true
			break
		}
	}
	if !over {
		return
	}
	conn := make([]int64, k)
	touched := make([]int32, 0, 16)
	order := rng.Perm(n)
	for _, ui := range order {
		u := int32(ui)
		from := parts[u]
		if pw[from] <= maxPW[from] {
			continue
		}
		w := g.NodeWeight(u)
		touched = touched[:0]
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			p := parts[g.Adj[j]]
			if conn[p] == 0 {
				touched = append(touched, p)
			}
			conn[p] += g.edgeWeight(j)
		}
		var best int32 = -1
		var bestConn int64 = -1
		for _, p := range touched {
			if p == from || pw[p]+w > maxPW[p] {
				continue
			}
			if conn[p] > bestConn {
				bestConn = conn[p]
				best = p
			}
		}
		if best < 0 {
			var minLoad int64 = 1<<63 - 1
			for p := 0; p < k; p++ {
				if int32(p) == from {
					continue
				}
				if pw[p]+w <= maxPW[p] && pw[p] < minLoad {
					minLoad = pw[p]
					best = int32(p)
				}
			}
		}
		for _, p := range touched {
			conn[p] = 0
		}
		if best >= 0 {
			parts[u] = best
			pw[from] -= w
			pw[best] += w
		}
	}
}

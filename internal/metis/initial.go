package metis

// initialPartition produces a k-way partition of the (coarsest) graph by
// recursive bisection, writing labels into parts. targets[p] is the
// fraction of total node weight that partition p should receive;
// len(targets) == k. All working memory comes from the solver context:
// induced subgraphs, heaps, and side arrays live in s.bis, and node
// subsets are stable in-place splits of s.initNodes.
func (s *Solver) initialPartition(g *Graph, k int, targets []float64, parts []int32) {
	n := g.NumNodes()
	s.localStamp = growI32(s.localStamp, n)
	s.localID = growI32(s.localID, n)
	s.initNodes = growI32(s.initNodes, n)
	nodes := s.initNodes[:n]
	for i := range nodes {
		nodes[i] = int32(i)
	}
	s.recursiveBisect(g, nodes, 0, k, targets, parts)
}

// recursiveBisect assigns partitions [firstPart, firstPart+k) to the given
// subset of nodes. nodes is reordered in place (stably, keeping ascending
// id order on both sides) so each half is a contiguous subslice.
func (s *Solver) recursiveBisect(g *Graph, nodes []int32, firstPart, k int, targets []float64, parts []int32) {
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
	s.induce(g, nodes)
	side := s.bisect(&s.bis.sub, fracL/fracAll)
	// Stable split: left side compacts forward, right side round-trips
	// through the scratch buffer. Both halves stay in ascending id order,
	// so induced subgraphs keep sorted adjacency at every depth.
	s.bis.nodesTmp = growI32(s.bis.nodesTmp, len(nodes))
	tmp := s.bis.nodesTmp[:0]
	nl := 0
	for i, u := range nodes {
		if side[i] == 0 {
			nodes[nl] = u
			nl++
		} else {
			tmp = append(tmp, u)
		}
	}
	copy(nodes[nl:], tmp)
	s.recursiveBisect(g, nodes[:nl], firstPart, kL, targets, parts)
	s.recursiveBisect(g, nodes[nl:], firstPart+kL, kR, targets, parts)
}

// induce extracts the subgraph on the given nodes (edges to outside nodes
// are dropped) into s.bis.sub. Node i of the subgraph corresponds to
// nodes[i]. Membership is an epoch-stamped array instead of a map; the
// subgraph dies when its node set is split, so one scratch set serves
// every recursion depth.
func (s *Solver) induce(g *Graph, nodes []int32) {
	n := len(nodes)
	stampGen := s.nextStamp()
	stamp, lid := s.localStamp, s.localID
	for i, u := range nodes {
		stamp[u] = stampGen
		lid[u] = int32(i)
	}
	s.bis.xadj = growI32(s.bis.xadj, n+1)
	xadj := s.bis.xadj[:n+1]
	xadj[0] = 0
	for i, u := range nodes {
		deg := int32(0)
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			if stamp[g.Adj[j]] == stampGen {
				deg++
			}
		}
		xadj[i+1] = xadj[i] + deg
	}
	m := int(xadj[n])
	s.bis.adj = growI32(s.bis.adj, m)
	s.bis.ewgt = growI32(s.bis.ewgt, m)
	s.bis.nwgt = growI64(s.bis.nwgt, n)
	adj, ewgt, nwgt := s.bis.adj[:m], s.bis.ewgt[:m], s.bis.nwgt[:n]
	for i, u := range nodes {
		p := xadj[i]
		nwgt[i] = g.NodeWeight(u)
		for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
			v := g.Adj[j]
			if stamp[v] == stampGen {
				adj[p] = lid[v]
				ewgt[p] = int32(g.edgeWeight(j))
				p++
			}
		}
	}
	s.bis.sub = Graph{XAdj: xadj, Adj: adj, EWgt: ewgt, NWgt: nwgt}
}

// ggAttempts is how many greedy-graph-growing seeds bisect tries before
// keeping the best cut.
const ggAttempts = 4

// bisect splits g into sides 0 and 1, with side 0 receiving approximately
// fracL of the total node weight, using greedy graph growing followed by
// FM refinement. Returns the side of each node (valid until the next
// bisect call).
func (s *Solver) bisect(g *Graph, fracL float64) []int32 {
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	total := g.TotalNodeWeight()
	target := int64(float64(total) * fracL)
	s.bis.side = growI32(s.bis.side, n)
	s.bis.bestSide = growI32(s.bis.bestSide, n)
	side, bestSide := s.bis.side[:n], s.bis.bestSide[:n]
	var bestCut int64 = -1
	for try := 0; try < ggAttempts; try++ {
		s.growRegion(g, side, target)
		s.fmRefineBisection(g, side, target, total, 4)
		cut := g.EdgeCut(side)
		if bestCut < 0 || cut < bestCut {
			bestCut = cut
			copy(bestSide, side)
		}
	}
	return bestSide
}

// growRegion grows side 0 from a random seed, always absorbing the frontier
// vertex with the strongest connection to the region, until side 0 holds at
// least target weight. Disconnected remainders seed new growth fronts.
func (s *Solver) growRegion(g *Graph, side []int32, target int64) {
	n := g.NumNodes()
	for i := range side {
		side[i] = 1
	}
	if target <= 0 {
		return
	}
	s.bis.inRegion = growBool(s.bis.inRegion, n)
	s.bis.conn = growI64(s.bis.conn, n)
	s.bis.hpos = growI32(s.bis.hpos, n)
	inRegion, conn := s.bis.inRegion[:n], s.bis.conn[:n]
	for i := 0; i < n; i++ {
		inRegion[i] = false
		conn[i] = 0
	}
	pq := &s.bis.pq
	pq.reset(n, s.bis.hpos)
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
			pq.set(v, conn[v])
		}
	}
	perm := s.permute(n)
	pi := 0
	nextSeed := func() int32 {
		for pi < n {
			u := perm[pi]
			pi++
			if !inRegion[u] {
				return u
			}
		}
		return -1
	}
	for regionW < target {
		var u int32 = -1
		for pq.len() > 0 {
			if e := pq.popMax(); !inRegion[e.node] {
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
}

// fmRefineBisection runs Fiduccia–Mattheyses passes on a 2-way partition:
// in each pass vertices are moved one at a time in order of best gain
// (subject to the balance constraint), each vertex at most once; at the end
// of the pass the prefix of moves with the best cumulative cut is kept.
func (s *Solver) fmRefineBisection(g *Graph, side []int32, targetL, total int64, maxPasses int) {
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
	s.bis.gain = growI64(s.bis.gain, n)
	s.bis.locked = growBool(s.bis.locked, n)
	s.bis.hpos = growI32(s.bis.hpos, n)
	gain, locked := s.bis.gain[:n], s.bis.locked[:n]
	pq := &s.bis.pq
	for pass := 0; pass < maxPasses; pass++ {
		for i := 0; i < n; i++ {
			locked[i] = false
		}
		pq.reset(n, s.bis.hpos)
		for u := int32(0); int(u) < n; u++ {
			var ext, intl int64
			for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
				if side[g.Adj[j]] == side[u] {
					intl += g.edgeWeight(j)
				} else {
					ext += g.edgeWeight(j)
				}
			}
			gain[u] = ext - intl
			pq.set(u, gain[u])
		}
		moves := s.bis.moves[:0]
		var cum, best int64
		bestIdx := -1
		for pq.len() > 0 {
			e := pq.popMax()
			u := e.node
			from := side[u]
			to := 1 - from
			w := g.NodeWeight(u)
			// Balance: allow the move only if the destination stays within
			// its cap (or the move corrects an existing overload).
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
			// Incremental gain update: u's move flips the classification
			// of each incident edge for the neighbour — internal edges to
			// u's old side become cut (+2w) and cut edges to its new side
			// become internal (-2w). O(1) per neighbour instead of the
			// O(deg) full recomputation, which made dense coarsest graphs
			// quadratic per move. A balance-rejected neighbour re-enters
			// the heap here when its gain changes.
			for j := g.XAdj[u]; j < g.XAdj[u+1]; j++ {
				v := g.Adj[j]
				if locked[v] {
					continue
				}
				w2 := 2 * g.edgeWeight(j)
				if side[v] == from {
					gain[v] += w2
				} else {
					gain[v] -= w2
				}
				pq.set(v, gain[v])
			}
		}
		// Roll back moves past the best prefix.
		for i := len(moves) - 1; i > bestIdx; i-- {
			m := moves[i]
			w := g.NodeWeight(m.node)
			weights[side[m.node]] -= w
			weights[m.from] += w
			side[m.node] = m.from
		}
		s.bis.moves = moves[:0]
		if best <= 0 {
			break
		}
	}
}

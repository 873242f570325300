package metis

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// heavyEdgeMatch computes a matching that pairs each unmatched node with
// its unmatched neighbour of maximum edge weight (ties broken by first
// encounter), visiting nodes in random order. Unmatchable nodes remain
// singletons. Coarse ids are assigned in node order into cmap so output
// is deterministic given the matching; returns the coarse node count.
func (s *Solver) heavyEdgeMatch(g *Graph, cmap []int32) int {
	n := g.NumNodes()
	s.match = growI32(s.match, n)
	match := s.match[:n]
	for i := range match {
		match[i] = -1
	}
	xadj, adj, ew := g.XAdj, g.Adj, g.weights()
	for _, u := range s.permute(n) {
		if match[u] >= 0 {
			continue
		}
		best := int32(-1)
		var bestW int64 = -1
		for j, end := int(xadj[u]), int(xadj[u+1]); j < end; j++ {
			v := adj[j]
			if match[v] >= 0 || v == u {
				continue
			}
			if w := ew.at(j); w > bestW {
				bestW, best = w, v
			}
		}
		if best >= 0 {
			match[u], match[best] = best, u
		} else {
			match[u] = u
		}
	}
	return numberMatching(match, cmap)
}

// contract builds the coarse graph induced by cmap directly in CSR form,
// writing into the reusable buffers of out: coarse node weights are sums
// of member weights, parallel edges merge by summing weights, and
// intra-group edges vanish. It works row by row over the fine adjacency:
//
//  1. a counting sort of cmap groups fine nodes into per-coarse-node
//     member lists (ascending fine id), and each coarse node's share of
//     the fine entries splits the coarse ids into contiguous ranges of
//     about equal work, one per worker;
//  2. a counting pass finds every coarse node's distinct coarse
//     neighbours, so the coarse CSR is allocated once at its exact size;
//  3. a fold pass folds each coarse row from its members' fine rows into
//     a dense accumulator, then writes it at its own offset sorted by
//     neighbour id (sortRow).
//
// Both passes run their ranges on up to GOMAXPROCS workers, each with its
// own marker table, accumulator and row scratch; a coarse row is counted
// and written by the worker that owns it and read by no other. A row
// depends only on its members' fine rows and cmap, it is sorted, and its
// weights are integer sums, so the result is the same at any worker count
// and bit-identical to NewGraph over the same coarse edge multiset
// (pinned by TestContractMatchesNaive). No folded row is held beside the
// output but the one a worker has open: all of them together are a second
// copy of the coarse graph, and with that copy live the peak heap of a
// run depends on where a collection happens to fall.
func (s *Solver) contract(f *Graph, cmap []int32, numCoarse int, out *levelData) {
	n := f.NumNodes()
	nc := numCoarse
	fxadj, fadj, few := f.XAdj, f.Adj, f.weights()

	// Node weights, and each coarse node's fine entries summed into
	// xadj[c+1] to split the work.
	out.nwgt = growI64(out.nwgt, nc)
	nwgt := out.nwgt[:nc]
	clear(nwgt)
	out.xadj = growI32(out.xadj, nc+1)
	xadj := out.xadj[:nc+1]
	clear(xadj)
	for u := 0; u < n; u++ {
		c := cmap[u]
		nwgt[c] += f.NodeWeight(int32(u))
		xadj[c+1] += fxadj[u+1] - fxadj[u]
	}
	for c := 0; c < nc; c++ {
		xadj[c+1] += xadj[c]
	}
	cws := s.contractWorkers(xadj)

	// Member lists: counting sort of cmap keeps members in ascending fine
	// id within each coarse node.
	s.mstart = growI32(s.mstart, nc+1)
	ms := s.mstart[:nc+1]
	clear(ms)
	for _, c := range cmap {
		ms[c+1]++
	}
	for i := 0; i < nc; i++ {
		ms[i+1] += ms[i]
	}
	s.members = growI32(s.members, n)
	mem := s.members[:n]
	s.pos = growI32(s.pos, nc)
	pos := s.pos[:nc]
	copy(pos, ms[:nc])
	for u := 0; u < n; u++ {
		c := cmap[u]
		mem[pos[c]] = int32(u)
		pos[c]++
	}

	s.ct = contraction{cmap: cmap, mem: mem, ms: ms, fxadj: fxadj, fadj: fadj, few: few, xadj: xadj}
	ct := &s.ct
	parallel(cws, ct, (*contractWorker).count)
	// A coarse row folds a subset of the fine adjacency, so m can never
	// exceed the fine entry count and the int32 offsets are safe by
	// induction from NewGraph's overflow guard; assert it anyway so a
	// future invariant break fails loudly instead of wrapping.
	m := int64(0)
	for c := 0; c < nc; c++ {
		m += int64(xadj[c+1])
		if m > maxCSREntries {
			panic("metis: contracted graph exceeds int32 CSR index capacity")
		}
		xadj[c+1] = int32(m)
	}

	// The two arrays are most of a level, so they get no grow headroom.
	if int64(cap(out.adj)) < m {
		out.adj, out.ewgt = make([]int32, m), make([]int32, m)
	}
	ct.adj, ct.ewgt = out.adj[:m], out.ewgt[:m]
	parallel(cws, ct, (*contractWorker).fold)
	out.graph = Graph{XAdj: xadj, Adj: ct.adj, EWgt: ct.ewgt, NWgt: nwgt}
	s.ct = contraction{} // hold no graph past the call
}

// contraction is what the workers of one contraction share: the fine
// graph, its member lists by coarse node, and the coarse CSR they write.
type contraction struct {
	cmap, mem, ms []int32
	fxadj, fadj   []int32
	few           edgeWeights
	xadj          []int32
	adj, ewgt     []int32
}

// count is the counting pass over the worker's rows. mark[cv] holds the
// stamp of the last row that met cv; the counting pass's are negative,
// the fold's positive. mark[c] is stamped first so the node's own group is
// never counted, which leaves the inner loop one test, and a branch-free
// one. Row c's degree goes to xadj[c+1], which only its worker touches.
func (cw *contractWorker) count(ct *contraction) {
	cmap, mem, ms, fxadj, fadj, xadj := ct.cmap, ct.mem, ct.ms, ct.fxadj, ct.fadj, ct.xadj
	mark := cw.mark
	clear(mark)
	clear(cw.acc)
	for c := cw.lo; c < cw.hi; c++ {
		stamp := -c - 1
		mark[c] = stamp
		deg := int32(0)
		for _, u := range mem[ms[c]:ms[c+1]] {
			for _, v := range fadj[fxadj[u]:fxadj[u+1]] {
				cv := cmap[v]
				d := int32(0)
				if mark[cv] != stamp {
					d = 1
				}
				mark[cv] = stamp
				deg += d
			}
		}
		xadj[c+1] = deg
	}
}

// fold is the fold pass over the worker's rows: every fine entry adds its
// weight to acc[cv] and writes cv at the open row's end, which only
// advances past a neighbour the row has not met. The group's own weight
// collects in acc[c], dropped after the row. An accumulator sums int32
// weights with wraparound, which is exact because the fine graph's total
// fits int32 (CheckEdgeWeight).
func (cw *contractWorker) fold(ct *contraction) {
	cmap, mem, ms, fxadj, fadj, few, xadj := ct.cmap, ct.mem, ct.ms, ct.fxadj, ct.fadj, ct.few, ct.xadj
	mark, acc := cw.mark, cw.acc
	for c := cw.lo; c < cw.hi; c++ {
		start, end := xadj[c], xadj[c+1]
		cw.row = growI32(cw.row, int(end-start)+1)
		row := cw.row
		stamp := c + 1
		mark[c] = stamp
		k := 0
		for _, u := range mem[ms[c]:ms[c+1]] {
			for j, end := int(fxadj[u]), int(fxadj[u+1]); j < end; j++ {
				cv := cmap[fadj[j]]
				acc[cv] += int32(few.at(j))
				row[k] = cv
				d := 0
				if mark[cv] != stamp {
					d = 1
				}
				mark[cv] = stamp
				k += d
			}
		}
		acc[c] = 0
		cw.sortRow(row[:k], ct.adj[start:end], ct.ewgt[start:end])
	}
}

// sortRow writes the folded row — its neighbours in row, in
// first-encounter order, their weights in cw.acc — to adj and ewgt sorted
// by neighbour id, and zeroes their accumulators. A row long enough that
// sorting it costs more than scanning a bitmap of its id span is sorted
// through cw.bits; a short one by comparison.
func (cw *contractWorker) sortRow(row, adj, ewgt []int32) {
	acc := cw.acc
	lo, hi := int32(math.MaxInt32), int32(-1)
	for _, cv := range row {
		lo, hi = min(lo, cv), max(hi, cv)
	}
	if len(row) <= 16 || len(row)*bits.Len(uint(len(row))) < int(hi-lo)>>6 {
		slices.Sort(row)
		for i, cv := range row {
			adj[i], ewgt[i] = cv, acc[cv]
			acc[cv] = 0
		}
		return
	}
	set := cw.bits
	for _, cv := range row {
		set[cv>>6] |= 1 << (cv & 63)
	}
	p := 0
	for wi := lo >> 6; wi <= hi>>6; wi++ {
		for w := set[wi]; w != 0; w &= w - 1 {
			cv := wi<<6 | int32(bits.TrailingZeros64(w))
			adj[p], ewgt[p] = cv, acc[cv]
			acc[cv] = 0
			p++
		}
		set[wi] = 0
	}
}

// contractWorker is one contraction worker's range of coarse rows
// [lo, hi) and its scratch, each table indexed by coarse node.
type contractWorker struct {
	lo, hi int32
	mark   []int32  // stamp of the row that last met each neighbour
	acc    []int32  // the open row's folded weight per neighbour
	bits   []uint64 // the open row's neighbours as a bitmap, when sorted by it
	row    []int32  // the open row's neighbours in first-encounter order
}

// maxWorkers overrides the number of contraction workers; 0 means
// runtime.GOMAXPROCS(0), with at least minContractWork fine entries each.
// Tests set it to check that worker count never changes a coarse graph.
var maxWorkers = 0

// minContractWork is the fewest fine entries a contraction worker is
// started for: below it a goroutine costs more than it saves.
const minContractWork = 1 << 15

// contractWorkers splits the coarse nodes into contiguous ranges of about
// equal fine entries, given their running totals in work (work[c] is the
// fine entries of the coarse nodes before c), and returns one worker per
// range with its tables sized for the coarse graph.
func (s *Solver) contractWorkers(work []int32) []*contractWorker {
	nc := len(work) - 1
	total := int64(work[nc])
	workers := maxWorkers
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), int(total/minContractWork))
	}
	workers = max(1, min(workers, nc))
	for len(s.cws) < workers {
		s.cws = append(s.cws, &contractWorker{})
	}
	cws := s.cws[:workers]
	lo := int32(0)
	for w, cw := range cws {
		hi := int32(nc)
		if w < workers-1 {
			target := total * int64(w+1) / int64(workers)
			hi = int32(sort.Search(nc, func(c int) bool { return int64(work[c]) >= target }))
		}
		cw.lo, cw.hi = lo, hi
		cw.mark, cw.acc = growI32(cw.mark, nc), growI32(cw.acc, nc)
		cw.bits = grow(cw.bits, (nc+63)>>6)
		lo = hi
	}
	return cws
}

// parallel runs a pass of ct once per worker, each on its own goroutine
// when there is more than one, and returns when all are done.
func parallel(cws []*contractWorker, ct *contraction, pass func(*contractWorker, *contraction)) {
	if len(cws) == 1 {
		pass(cws[0], ct)
		return
	}
	var wg sync.WaitGroup
	for _, cw := range cws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pass(cw, ct)
		}()
	}
	wg.Wait()
}

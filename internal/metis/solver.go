package metis

import (
	"math"
	"math/rand"
)

// Solver is a reusable partitioner context. It owns every scratch buffer
// the partitioner needs — the multilevel hierarchy, matching and
// contraction arrays, refinement worklists, and the recursive-bisection
// scratch — so repeated runs reach a steady state of near-zero
// allocations: buffers grow to the largest graph seen and are re-sliced
// per level afterwards. PartKway, PartHKway and RefineHKway all run
// through one multilevel driver (multilevel.go) over one level storage,
// so a Solver serves both cut objectives in any order.
//
// A Solver is not safe for concurrent use. The package-level PartKway
// and PartHKway use a fresh one per call; hold your own Solver when you
// want the allocation-free steady state.
type Solver struct {
	rng *rand.Rand
	src rand.Source

	// Multilevel hierarchy storage, finest-first. levels[0] holds the
	// caller's graph for the length of a call and its cmap; levels[i>0]
	// also own the i-th coarse graph and its projected partition vector.
	levels []*levelData

	perm  []int32 // Fisher–Yates permutation buffer
	match []int32 // heavy-edge matching state

	// Contraction scratch (see Solver.contract).
	mstart  []int32           // member-list offsets per coarse node, len nc+1
	members []int32           // fine nodes grouped by coarse id, len n
	pos     []int32           // member-list fill cursors, len nc
	cws     []*contractWorker // per-worker ranges, marker tables, accumulators and rows
	ct      contraction       // what the workers share, during one contraction
	mark    []int32           // hypergraph contraction's stamps (see hcoarsen.go)

	// Refinement scratch (see refine.go).
	conn     []int64 // connectivity of the current node to each part
	touched  []int32 // parts with nonzero conn, for sparse reset
	pw       []int64 // current part weights
	maxPW    []int64 // balance caps
	ed       []int64 // external (cut-edge) weight per node
	totw     []int64 // total incident edge weight per node
	bndPos   []int32 // node -> index in bndList, -1 when interior
	bndList  []int32 // current boundary worklist
	passList []int32 // current pass's shuffled work queue
	nextList []int32 // nodes re-queued for the next pass
	queued   []bool  // membership flags for the pass queues
	overList []int32 // rebalance candidates (nodes of overloaded parts)

	// Boundary-FM scratch for 2-way refinement (see fmRefine2).
	fmPQ     idxHeap
	fmPos    []int32
	fmLocked []bool
	fmMoves  []moveRec

	// Initial-partitioning scratch (see initial.go).
	targets    []float64
	initNodes  []int32 // coarsest node ids, stably split by recursion
	localStamp []int32 // coarsest node -> stamp of the induce call that saw it
	localID    []int32 // coarsest node -> local id in the induced subgraph
	stampGen   int32
	bis        bisectScratch

	// Hypergraph scratch (see hcoarsen.go / hrefine.go).
	hscore   []int64          // matching: per-candidate connectivity accumulator
	hcand    []int32          // candidates with nonzero hscore, for sparse reset
	hpinTmp  []int32          // contraction: coarse pin buffer for one net
	hnetSeen map[uint64]int32 // contraction: pin-set hash -> coarse net index
	cliq     []BuilderEdge    // coarsest-level clique-expansion buffer

	// λ−1 refinement scratch: per-net (part, pin-count) spans, swap-delete
	// compacted so the live span length of net e is exactly λ(e).
	hpOff  []int32 // net -> base slot of its span (capacity min(|e|, k))
	hpPart []int32 // slot -> partition id
	hpCnt  []int32 // slot -> pins of the net in that partition
	hpLen  []int32 // net -> live slots == λ(net)
	hbcnt  []int32 // node -> incident nets with λ > 1 (boundary test)
}

// levelData is the reusable storage for one rung of the hierarchy, of
// either objective: a level holds a clique graph or a hypergraph, and a
// Solver reused across objectives keeps the buffers of both.
type levelData struct {
	cmap  []int32 // this level's node -> next-coarser node
	parts []int32 // partition labels at this level (levels > 0)
	nwgt  []int64 // coarse node weights (levels > 0)

	// Clique graph: the caller's at level 0, else contract's CSR.
	xadj  []int32
	adj   []int32
	ewgt  []int32
	graph Graph

	// Hypergraph: the caller's at level 0, else hcontract's coarse pin
	// lists, merged net weights and node → net transpose.
	xpins  []int32
	pins   []int32
	netwgt []int64
	xnets  []int32
	nets   []int32
	hg     HGraph
}

// bisectScratch holds the buffers of the recursive-bisection initial
// partitioner. A bisection's induced subgraph dies as soon as its node
// set is split, so one instance serves every recursion depth.
type bisectScratch struct {
	xadj []int32
	adj  []int32
	ewgt []int32
	nwgt []int64
	sub  Graph

	nodesTmp []int32 // right-side buffer for the stable node split
	side     []int32
	bestSide []int32
	inRegion []bool
	conn     []int64
	pq       idxHeap
	hpos     []int32 // heap position index backing pq
	gain     []int64
	locked   []bool
	moves    []moveRec
}

type moveRec struct{ node, from int32 }

// NewSolver returns an empty partitioner context. Scratch is allocated
// lazily on first use and grows to the largest (graph, k) seen.
func NewSolver() *Solver {
	src := rand.NewSource(0)
	return &Solver{rng: rand.New(src), src: src}
}

// level returns the i-th levelData, extending the hierarchy as needed.
func (s *Solver) level(i int) *levelData {
	for len(s.levels) <= i {
		s.levels = append(s.levels, &levelData{})
	}
	return s.levels[i]
}

// release drops level 0's copy of the caller's graph, so that nothing a
// call was given outlives it.
func (s *Solver) release() {
	s.levels[0].graph, s.levels[0].hg = Graph{}, HGraph{}
}

// grow returns b with length n, reallocating (with headroom) only when
// the capacity is insufficient. Newly allocated memory is zeroed;
// retained memory keeps its previous contents — callers must initialise
// what they read.
func grow[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n, n+n/4)
}

func growI32(b []int32, n int) []int32     { return grow(b, n) }
func growI64(b []int64, n int) []int64     { return grow(b, n) }
func growF64(b []float64, n int) []float64 { return grow(b, n) }
func growBool(b []bool, n int) []bool      { return grow(b, n) }

// permute fills the solver's permutation buffer with a uniformly random
// permutation of 0..n-1 via in-place Fisher–Yates (rand.Perm allocates a
// fresh []int per call; this allocates only on growth).
func (s *Solver) permute(n int) []int32 {
	s.perm = growI32(s.perm, n)
	p := s.perm[:n]
	for i := range p {
		p[i] = int32(i)
	}
	s.shuffle(p)
	return p
}

// shuffle permutes p in place with the solver's deterministic rng.
func (s *Solver) shuffle(p []int32) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// nextStamp advances the induce-epoch counter, clearing the stamp array
// on the (practically unreachable) int32 wraparound.
func (s *Solver) nextStamp() int32 {
	if s.stampGen == math.MaxInt32 {
		for i := range s.localStamp {
			s.localStamp[i] = 0
		}
		s.stampGen = 0
	}
	s.stampGen++
	return s.stampGen
}

// nodeEntry is one element of the typed max-heap used by region growing
// and FM refinement. A concrete heap avoids the per-push interface boxing
// of container/heap, which dominated the old initial partitioner's
// allocation profile.
type nodeEntry struct {
	node int32
	key  int64
}

// idxHeap is an indexed max-heap: each node appears at most once and a
// key change sifts the entry in place, so the heap never exceeds n live
// entries. The lazy alternative (push a fresh entry per update, skip
// stale pops) accumulates one dead entry per gain update, which on dense
// coarse graphs makes pops the dominant partitioning cost.
type idxHeap struct {
	e   []nodeEntry
	pos []int32 // node -> index in e, -1 when absent
}

// reset empties the heap and binds it to a position index of n nodes.
func (h *idxHeap) reset(n int, pos []int32) {
	h.e = h.e[:0]
	h.pos = pos[:n]
	for i := 0; i < n; i++ {
		pos[i] = -1
	}
}

func (h *idxHeap) len() int { return len(h.e) }

func (h *idxHeap) swap(i, j int) {
	h.e[i], h.e[j] = h.e[j], h.e[i]
	h.pos[h.e[i].node] = int32(i)
	h.pos[h.e[j].node] = int32(j)
}

func (h *idxHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.e[p].key >= h.e[i].key {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *idxHeap) siftDown(i int) {
	n := len(h.e)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.e[l].key > h.e[big].key {
			big = l
		}
		if r < n && h.e[r].key > h.e[big].key {
			big = r
		}
		if big == i {
			break
		}
		h.swap(i, big)
		i = big
	}
}

// set inserts node with the given key, or updates its key in place.
func (h *idxHeap) set(node int32, key int64) {
	if p := h.pos[node]; p >= 0 {
		old := h.e[p].key
		h.e[p].key = key
		if key > old {
			h.siftUp(int(p))
		} else if key < old {
			h.siftDown(int(p))
		}
		return
	}
	h.e = append(h.e, nodeEntry{node: node, key: key})
	i := len(h.e) - 1
	h.pos[node] = int32(i)
	h.siftUp(i)
}

// popMax removes and returns the entry with the maximum key.
func (h *idxHeap) popMax() nodeEntry {
	top := h.e[0]
	last := len(h.e) - 1
	if last > 0 {
		h.swap(0, last)
	}
	h.e = h.e[:last]
	h.pos[top.node] = -1
	if last > 0 {
		h.siftDown(0)
	}
	return top
}

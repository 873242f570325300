package metis

import "slices"

// This file is the coarsening half of the hypergraph partitioner: a
// heavy-connectivity matching over pins pairs nodes that co-occur in
// heavy small nets, and contraction maps pins through cmap, deduplicates
// within each net, drops nets that collapse to a single pin, and merges
// identical nets by summing weights — so the coarse hypergraph shrinks
// in nets as well as nodes, unlike clique contraction which can only
// fold parallel edges.

// maxMatchNet caps the net size considered during matching: a net with
// s pins contributes w/(s-1) of connectivity to each pin pair, so very
// large nets say almost nothing about which pair belongs together while
// costing O(s) per pin visit — skipping them keeps matching linear-ish
// in pin count without measurable quality loss.
const maxMatchNet = 256

// hconnMatch pairs each unmatched node with the unmatched node of
// maximum shared-net connectivity Σ w(e)/(|e|−1) (the standard clique
// scaling, in 8-bit fixed point; ties broken by first encounter in pin
// order), visiting nodes in random order — the hypergraph counterpart
// of heavyEdgeMatch. Coarse ids are assigned in node order into cmap so
// output is deterministic given the matching; returns the coarse count.
func (s *Solver) hconnMatch(h *HGraph, cmap []int32) int {
	n := h.NumNodes()
	s.match = growI32(s.match, n)
	match := s.match[:n]
	for i := range match {
		match[i] = -1
	}
	s.hscore = growI64(s.hscore, n)
	score := s.hscore[:n]
	for i := range score {
		score[i] = 0
	}
	cand := s.hcand[:0]
	for _, u := range s.permute(n) {
		if match[u] >= 0 {
			continue
		}
		cand = cand[:0]
		for _, e := range h.Nets[h.XNets[u]:h.XNets[u+1]] {
			pins := h.netPins(e)
			if len(pins) < 2 || len(pins) > maxMatchNet {
				continue
			}
			sc := (h.netWeight(e) << 8) / int64(len(pins)-1)
			if sc <= 0 {
				sc = 1
			}
			for _, v := range pins {
				if v == u || match[v] >= 0 {
					continue
				}
				if score[v] == 0 {
					cand = append(cand, v)
				}
				score[v] += sc
			}
		}
		best := int32(-1)
		var bestS int64
		for _, v := range cand {
			// Strict > keeps the first-encountered maximum, mirroring
			// heavyEdgeMatch's tie-break; the same loop sparsely resets
			// the accumulator.
			if score[v] > bestS {
				bestS, best = score[v], v
			}
			score[v] = 0
		}
		if best >= 0 {
			match[u], match[best] = best, u
		} else {
			match[u] = u
		}
	}
	s.hcand = cand[:0]
	return numberMatching(match, cmap)
}

// hashPins is a 64-bit FNV-1a-style hash of a sorted coarse pin list,
// used to merge identical nets during contraction. Collisions only cost
// a missed merge (the colliding net is kept separate), never
// correctness, because candidates are verified pin-by-pin.
func hashPins(pins []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range pins {
		h ^= uint64(uint32(p))
		h *= prime64
		h ^= h >> 29
	}
	return h
}

// hcontract builds the coarse hypergraph induced by cmap into out's
// reusable buffers: coarse node weights sum member weights; each net's
// pins map through cmap and deduplicate (epoch-stamped, no map); nets
// that collapse below two pins vanish; and nets with identical sorted
// coarse pin sets merge by summing weights, detected by hash with
// pin-by-pin verification (a hash collision keeps the nets separate —
// harmless). Everything is deterministic: nets are visited in order and
// pins sorted, so equal input gives equal output.
func (s *Solver) hcontract(f *HGraph, cmap []int32, numCoarse int, out *levelData) {
	n := f.NumNodes()
	nc := numCoarse

	out.nwgt = growI64(out.nwgt, nc)
	nwgt := out.nwgt[:nc]
	for i := range nwgt {
		nwgt[i] = 0
	}
	for u := 0; u < n; u++ {
		nwgt[cmap[u]] += f.NodeWeight(int32(u))
	}

	s.mark = growI32(s.mark, nc)
	mark := s.mark[:nc]
	for i := range mark {
		mark[i] = 0
	}
	if s.hnetSeen == nil {
		s.hnetSeen = make(map[uint64]int32)
	}
	clear(s.hnetSeen)
	seen := s.hnetSeen

	numNetsF := f.NumNets()
	out.xpins = growI32(out.xpins, numNetsF+1)
	cxp := out.xpins[:1]
	cxp[0] = 0
	cp := out.pins[:0]
	cw := out.netwgt[:0]
	tmp := s.hpinTmp[:0]
	for e := int32(0); int(e) < numNetsF; e++ {
		stamp := e + 1
		tmp = tmp[:0]
		for _, v := range f.netPins(e) {
			c := cmap[v]
			if mark[c] != stamp {
				mark[c] = stamp
				tmp = append(tmp, c)
			}
		}
		if len(tmp) < 2 {
			continue
		}
		slices.Sort(tmp)
		w := f.netWeight(e)
		hash := hashPins(tmp)
		if idx, ok := seen[hash]; ok {
			prev := cp[cxp[idx]:cxp[idx+1]]
			if len(prev) == len(tmp) && slices.Equal(prev, tmp) {
				cw[idx] += w
				continue
			}
		} else {
			seen[hash] = int32(len(cw))
		}
		cp = append(cp, tmp...)
		cw = append(cw, w)
		cxp = append(cxp, int32(len(cp)))
	}
	s.hpinTmp = tmp[:0]
	out.xpins, out.pins, out.netwgt = cxp, cp, cw

	out.xnets = growI32(out.xnets, nc+1)
	out.nets = growI32(out.nets, len(cp))
	buildNetTranspose(nc, cxp, cp, out.xnets[:nc+1], out.nets[:len(cp)])
	out.hg = HGraph{
		XPins: cxp, Pins: cp, NetWgt: cw, NWgt: nwgt,
		XNets: out.xnets[:nc+1], Nets: out.nets[:len(cp)],
	}
}

// cliqueCap bounds the per-net clique expansion at the coarsest level;
// larger nets fall back to a star around their first pin, keeping the
// expansion linear for pathological nets.
const cliqueCap = 16

// cliqueExpandCoarsest converts the (small) coarsest hypergraph into a
// plain graph so the existing recursive-bisection initial partitioner
// can run unchanged: each net of s pins becomes a clique over its pins
// with pair weight ⌈16·w/(s−1)⌉-ish (fixed-point of the standard w/(s−1)
// clique scaling, so 2-pin nets keep their exact relative weight), or a
// star for nets above cliqueCap. Expansion is quadratic per net but the
// coarsest hypergraph is at most coarsenTo(k) nodes with merged nets, so
// it is cheap — the whole point of coarsening before expanding.
//
// The expansion only seeds the initial partition, so pair weights whose
// total would break the graph's int32 weight invariant are scaled down
// (expandShift) rather than refused: a cut never fails on its seed.
func (s *Solver) cliqueExpandCoarsest(h *HGraph) (*Graph, error) {
	shift := expandShift(h)
	edges := s.cliq[:0]
	for e := int32(0); int(e) < h.NumNets(); e++ {
		pins := h.netPins(e)
		pw := pairWeight(h.netWeight(e), len(pins), shift)
		if len(pins) > cliqueCap {
			hub := pins[0]
			for _, v := range pins[1:] {
				edges = append(edges, BuilderEdge{U: hub, V: v, Weight: pw})
			}
			continue
		}
		for i := 0; i < len(pins); i++ {
			for j := i + 1; j < len(pins); j++ {
				edges = append(edges, BuilderEdge{U: pins[i], V: pins[j], Weight: pw})
			}
		}
	}
	s.cliq = edges[:0]
	return NewGraph(h.NumNodes(), edges, h.NWgt)
}

// pairWeight is the expansion weight of each pair of a net of the given
// weight and pin count: 16·w/(s−1) in fixed point, shifted right by shift,
// and at least 1.
func pairWeight(w int64, pins int, shift uint) int64 {
	return max(((w<<4)/int64(pins-1))>>shift, 1)
}

// expandShift returns the smallest right shift of the pair weights that
// keeps the expansion's total directed edge weight within CheckEdgeWeight,
// 0 whenever the weights fit as they are. Past 62 every pair weighs 1.
func expandShift(h *HGraph) uint {
	shift := uint(0)
	for ; shift < 63; shift++ {
		var total int64
		for e := int32(0); int(e) < h.NumNets(); e++ {
			s := len(h.netPins(e))
			pairs := int64(s - 1)
			if s <= cliqueCap {
				pairs = int64(s * (s - 1) / 2)
			}
			total += pairs * pairWeight(h.netWeight(e), s, shift)
		}
		if 2*total <= maxEdgeWeight {
			break
		}
	}
	return shift
}

package metis

import "fmt"

// HGraph is a hypergraph in dual CSR form: every net (hyperedge) owns a
// pin list, and the transposed node → net incidence is stored alongside
// so refinement can walk both directions without rebuilding anything.
//
// This is the native representation of a transactional workload
// (arXiv 1309.1556, on top of the Schism formulation): one net per
// transaction over the distinct tuples it touches, linear in total
// access-set size where the clique expansion is quadratic. The quality
// objective is the connectivity metric — see ConnectivityCost.
type HGraph struct {
	// XPins has length NumNets()+1; the pins of net e are
	// Pins[XPins[e]:XPins[e+1]]. Pins within a net are distinct (but not
	// necessarily sorted).
	XPins []int32
	Pins  []int32
	// NetWgt holds per-net weights; nil means every net weighs 1.
	NetWgt []int64
	// NWgt holds per-node weights; nil means every node weighs 1.
	NWgt []int64
	// XNets/Nets is the transpose: node v's incident nets are
	// Nets[XNets[v]:XNets[v+1]], ascending.
	XNets []int32
	Nets  []int32
}

// NumNodes returns the number of nodes.
func (h *HGraph) NumNodes() int {
	if len(h.XNets) == 0 {
		return 0
	}
	return len(h.XNets) - 1
}

// NumNets returns the number of nets (hyperedges).
func (h *HGraph) NumNets() int {
	if len(h.XPins) == 0 {
		return 0
	}
	return len(h.XPins) - 1
}

// NumPins returns the total pin count (sum of net sizes).
func (h *HGraph) NumPins() int { return len(h.Pins) }

// NodeWeight returns the weight of node i (1 if NWgt is nil).
func (h *HGraph) NodeWeight(i int32) int64 {
	if h.NWgt == nil {
		return 1
	}
	return h.NWgt[i]
}

// netWeight returns the weight of net e (1 if NetWgt is nil).
func (h *HGraph) netWeight(e int32) int64 {
	if h.NetWgt == nil {
		return 1
	}
	return h.NetWgt[e]
}

// netPins returns net e's pin list.
func (h *HGraph) netPins(e int32) []int32 { return h.Pins[h.XPins[e]:h.XPins[e+1]] }

// TotalNodeWeight returns the sum of all node weights.
func (h *HGraph) TotalNodeWeight() int64 {
	if h.NWgt == nil {
		return int64(h.NumNodes())
	}
	var tot int64
	for _, w := range h.NWgt {
		tot += w
	}
	return tot
}

// PartWeights returns the total node weight in each of k partitions.
func (h *HGraph) PartWeights(parts []int32, k int) []int64 {
	w := make([]int64, k)
	for i := 0; i < h.NumNodes(); i++ {
		w[parts[i]] += h.NodeWeight(int32(i))
	}
	return w
}

// ConnectivityCost returns the connectivity metric (λ−1) of a
// partitioning: the sum over nets of weight × (distinct partitions
// spanned − 1). A net entirely inside one partition costs nothing; every
// additional partition a transaction's access set straddles costs the
// net's weight — the hypergraph analogue of the distributed-transaction
// count the clique cut approximates.
func (h *HGraph) ConnectivityCost(parts []int32, k int) int64 {
	seen := make([]int32, k)
	for i := range seen {
		seen[i] = -1
	}
	var cost int64
	for e := int32(0); int(e) < h.NumNets(); e++ {
		var lambda int64
		for _, v := range h.netPins(e) {
			if p := parts[v]; seen[p] != e {
				seen[p] = e
				lambda++
			}
		}
		if lambda > 1 {
			cost += h.netWeight(e) * (lambda - 1)
		}
	}
	return cost
}

// Validate checks structural invariants: monotone XPins/XNets, in-range
// pins, no duplicate pins within a net, weight-array lengths, and that
// the transpose exactly mirrors the pin lists.
func (h *HGraph) Validate() error {
	n, m := h.NumNodes(), h.NumNets()
	if len(h.XPins) > 0 && h.XPins[0] != 0 {
		return fmt.Errorf("metis: XPins[0] != 0")
	}
	if len(h.XNets) > 0 && h.XNets[0] != 0 {
		return fmt.Errorf("metis: XNets[0] != 0")
	}
	for e := 0; e < m; e++ {
		if h.XPins[e+1] < h.XPins[e] {
			return fmt.Errorf("metis: XPins not monotone at %d", e)
		}
	}
	if m > 0 && int(h.XPins[m]) != len(h.Pins) {
		return fmt.Errorf("metis: XPins[m]=%d != len(Pins)=%d", h.XPins[m], len(h.Pins))
	}
	if h.NetWgt != nil && len(h.NetWgt) != m {
		return fmt.Errorf("metis: len(NetWgt)=%d != m=%d", len(h.NetWgt), m)
	}
	if h.NWgt != nil && len(h.NWgt) != n {
		return fmt.Errorf("metis: len(NWgt)=%d != n=%d", len(h.NWgt), n)
	}
	if len(h.Nets) != len(h.Pins) {
		return fmt.Errorf("metis: len(Nets)=%d != len(Pins)=%d", len(h.Nets), len(h.Pins))
	}
	last := make([]int32, n)
	for i := range last {
		last[i] = -1
	}
	deg := make([]int32, n)
	for e := int32(0); int(e) < m; e++ {
		for _, v := range h.netPins(e) {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("metis: pin out of range: %d", v)
			}
			if last[v] == e {
				return fmt.Errorf("metis: duplicate pin %d in net %d", v, e)
			}
			last[v] = e
			deg[v]++
		}
	}
	for v := 0; v < n; v++ {
		if h.XNets[v+1]-h.XNets[v] != deg[v] {
			return fmt.Errorf("metis: node %d has %d transpose entries, %d pins",
				v, h.XNets[v+1]-h.XNets[v], deg[v])
		}
	}
	// The transpose lists nets ascending; a cursor-based merge scan (same
	// trick as Graph.Validate) checks it matches the pin lists exactly.
	cursor := make([]int32, n)
	copy(cursor, h.XNets[:n])
	for e := int32(0); int(e) < m; e++ {
		for _, v := range h.netPins(e) {
			c := cursor[v]
			if c >= h.XNets[v+1] || h.Nets[c] != e {
				return fmt.Errorf("metis: transpose of node %d missing net %d", v, e)
			}
			cursor[v] = c + 1
		}
	}
	return nil
}

// buildNetTranspose fills xnets/nets (the node → net incidence) from pin
// lists by counting sort: visiting nets in ascending order writes each
// node's net list already sorted. xnets must have length numNodes+1 and
// nets length len(pins).
func buildNetTranspose(numNodes int, xpins, pins, xnets, nets []int32) {
	for i := range xnets {
		xnets[i] = 0
	}
	for _, v := range pins {
		xnets[v+1]++
	}
	for v := 0; v < numNodes; v++ {
		xnets[v+1] += xnets[v]
	}
	// xnets now holds the final start offsets; the fill below uses them
	// directly as cursors, leaving each advanced to the next node's start.
	for e := int32(0); int(e) < len(xpins)-1; e++ {
		for _, v := range pins[xpins[e]:xpins[e+1]] {
			nets[xnets[v]] = e
			xnets[v]++
		}
	}
	// Shift the advanced cursors back into start offsets.
	for v := numNodes; v > 0; v-- {
		xnets[v] = xnets[v-1]
	}
	xnets[0] = 0
}

// NewHGraph assembles a hypergraph from net pin lists in CSR form
// (xpins/pins as documented on HGraph), building the node → net
// transpose. Pins within a net must be distinct; netWeights and
// nodeWeights may be nil (all ones). Returns ErrTooLarge (wrapped) when
// the pin count exceeds int32 index capacity.
func NewHGraph(numNodes int, xpins, pins []int32, netWeights, nodeWeights []int64) (*HGraph, error) {
	h := new(HGraph)
	if err := h.Rebuild(numNodes, xpins, pins, netWeights, nodeWeights); err != nil {
		return nil, err
	}
	return h, nil
}

// Rebuild is NewHGraph into h: h adopts the given pin lists and weights
// and rebuilds its transpose in the arrays of h's previous one, growing
// them only when they are too small; on an empty h it allocates the
// transpose at its exact size. On error h is left unusable until the
// next successful Rebuild.
func (h *HGraph) Rebuild(numNodes int, xpins, pins []int32, netWeights, nodeWeights []int64) error {
	if int64(len(pins)) > maxCSREntries {
		return fmt.Errorf("metis: %d pins over the int32 limit %d: %w",
			len(pins), maxCSREntries, ErrTooLarge)
	}
	h.XPins, h.Pins, h.NetWgt, h.NWgt = xpins, pins, netWeights, nodeWeights
	h.XNets = regrow(h.XNets, numNodes+1)
	h.Nets = regrow(h.Nets, len(pins))
	m := h.NumNets()
	if m > 0 && int(xpins[m]) != len(pins) {
		return fmt.Errorf("metis: XPins[m]=%d != len(Pins)=%d", xpins[m], len(pins))
	}
	// The transpose's offsets are rebuilt from scratch below, so until
	// then their array holds each node's last net for the duplicate check.
	last := h.XNets[:numNodes]
	for i := range last {
		last[i] = -1
	}
	for e := int32(0); int(e) < m; e++ {
		if xpins[e+1] < xpins[e] {
			return fmt.Errorf("metis: XPins not monotone at %d", e)
		}
		for _, v := range pins[xpins[e]:xpins[e+1]] {
			if v < 0 || int(v) >= numNodes {
				return fmt.Errorf("metis: pin out of range: %d", v)
			}
			if last[v] == e {
				return fmt.Errorf("metis: duplicate pin %d in net %d", v, e)
			}
			last[v] = e
		}
	}
	buildNetTranspose(numNodes, xpins, pins, h.XNets, h.Nets)
	return nil
}

// regrow is grow for an array a structure keeps across rebuilds: an
// array that never had room (a first build) is sized exactly, and one
// that has is resliced or regrown with grow's headroom, so that a
// rebuild from a slightly larger input does not reallocate again.
func regrow[T any](b []T, n int) []T {
	if cap(b) == 0 {
		return make([]T, n)
	}
	return grow(b, n)
}

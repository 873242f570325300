package graph

import (
	"fmt"
	"runtime"
	"sync"

	"schism/internal/metis"
	"schism/internal/workload"
)

// BuildHyper constructs the hypergraph-native workload representation:
// one net per transaction over the distinct group nodes it accesses
// (weight 1, so the connectivity metric counts distributed
// transactions directly), plus one net per replicated group spanning
// its centre and all replicas, weighted by the group's update count —
// the same information Build encodes, but linear in total access-set
// size where the clique expansion is quadratic.
//
// The front half (interning, transaction sampling, coalescing, node
// layout, weights) is shared with Build, so the two representations
// describe the same node space and every partitioning translation (Assignments,
// DenseAssignments, ...) works unchanged. Pin generation is sharded
// across GOMAXPROCS workers by contiguous transaction ranges with each
// worker writing into precomputed slots, so the result is byte-identical
// to a single-threaded build regardless of worker count.
func BuildHyper(tr *workload.Trace, opts Options) (*Graph, error) {
	g := new(Graph)
	if err := g.RebuildHyper(tr, opts); err != nil {
		return nil, err
	}
	return g, nil
}

// RebuildHyper makes g what BuildHyper(tr, opts) returns, in g's own
// arrays: the accessor lists, groups, members, node layout and weights,
// the pin lists and their transpose of a graph BuildHyper or RebuildHyper
// made before are resliced when big enough and regrown with headroom when
// not, so that rebuilding over a sliding window reaches a steady state of
// few allocations. What the previous build handed out through g — its
// slices, its HG and, at the next ProjectLabels, that call's array — is
// overwritten; the interner and compact trace it pointed to are not. On
// error g is unusable until the next successful rebuild.
func (g *Graph) RebuildHyper(tr *workload.Trace, opts Options) error {
	g.CSR, g.Nodes = nil, nil
	nwgt, err := g.buildCore(tr, opts)
	if err != nil {
		return err
	}
	xpins, pins, netWgt, err := g.buildPins()
	if err != nil {
		return err
	}
	if g.HG == nil {
		g.HG = new(metis.HGraph)
	}
	return g.HG.Rebuild(int(g.numNodes), xpins, pins, netWgt, nwgt)
}

// hyperNetScale is the fixed-point weight unit for hypergraph nets: a
// transaction net weighs hyperNetScale, so sub-transaction costs (the
// per-arm replication glue in replWeights) stay expressible as positive
// integers. Connectivity costs are reported in these units — divide by
// hyperNetScale for "distributed transaction equivalents".
const hyperNetScale = 64

// buildPins generates the net pin lists in CSR form: transaction nets
// sharded across workers (two passes — count, then fill into final
// slots), replication nets appended serially.
// Transactions touching fewer than two distinct groups produce no net.
func (g *Graph) buildPins() (xpins, pins []int32, netWgt []int64, err error) {
	c, numGroups, numTxns := g.Compact, len(g.groupBase), g.Compact.NumTxns()
	workers := maxWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > numTxns {
		workers = numTxns
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (numTxns + workers - 1) / workers

	// Epoch-stamped dedup scratch, one per worker, shared by both passes
	// (pass 1 stamps 2·ti, pass 2 stamps 2·ti+1, so the scratch stays
	// valid without re-initialising between passes).
	if len(g.seen) < workers {
		seen := make([][]int32, workers)
		copy(seen, g.seen)
		g.seen = seen
	}
	seenScratch := g.seen[:workers]
	for s := range seenScratch {
		seen := regrow(seenScratch[s], numGroups)
		for i := range seen {
			seen[i] = -1
		}
		seenScratch[s] = seen
	}

	// Pass 1: per-shard net and pin counts.
	shardNets := make([]int64, workers)
	shardPins := make([]int64, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := s*chunk, (s+1)*chunk
			if hi > numTxns {
				hi = numTxns
			}
			seen := seenScratch[s]
			var nets, pinsN int64
			for ti := lo; ti < hi; ti++ {
				epoch := int32(2 * ti)
				m := int64(0)
				for _, e := range c.Txn(ti) {
					gi := g.GroupOf[e&^workload.WriteBit]
					if seen[gi] != epoch {
						seen[gi] = epoch
						m++
					}
				}
				if m >= 2 {
					nets++
					pinsN += m
				}
			}
			shardNets[s], shardPins[s] = nets, pinsN
		}(s)
	}
	wg.Wait()

	netStart := make([]int64, workers+1)
	pinStart := make([]int64, workers+1)
	for s := 0; s < workers; s++ {
		netStart[s+1] = netStart[s] + shardNets[s]
		pinStart[s+1] = pinStart[s] + shardPins[s]
	}
	txnNets, txnPins := netStart[workers], pinStart[workers]
	var replNets, replPins int64
	for gi := int32(0); int(gi) < numGroups; gi++ {
		if !g.exploded[gi] {
			continue
		}
		updates, armW := g.replWeights(gi)
		acc := int64(g.accCount[gi])
		if updates > 0 {
			replNets++
			replPins += acc + 1
		}
		if armW > 0 {
			replNets += acc
			replPins += 2 * acc
		}
	}
	totalNets := txnNets + replNets
	totalPins := txnPins + replPins
	// Every net has >= 2 pins, so the pin check also bounds the net count.
	if err := metis.CheckCSRCapacity(totalPins); err != nil {
		return nil, nil, nil, fmt.Errorf("graph: %d hypergraph pins from %d transactions: %w (sample the trace)",
			totalPins, numTxns, err)
	}

	if h := g.HG; h != nil {
		xpins, pins, netWgt = h.XPins, h.Pins, h.NetWgt
	}
	xpins = regrow(xpins, int(totalNets+1))
	xpins[0] = 0
	pins = regrow(pins, int(totalPins))
	netWgt = regrow(netWgt, int(totalNets))

	// Pass 2: each worker writes its shard's nets into place. The current
	// transaction's pins are staged in a small buffer so an undersized
	// access set never touches the shared arrays.
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo, hi := s*chunk, (s+1)*chunk
			if hi > numTxns {
				hi = numTxns
			}
			seen := seenScratch[s]
			var nodes []int32 // member nodes, in first-access order
			e := netStart[s]
			w := pinStart[s]
			for ti := lo; ti < hi; ti++ {
				epoch := int32(2*ti + 1)
				nodes = nodes[:0]
				for _, a := range c.Txn(ti) {
					gi := g.GroupOf[a&^workload.WriteBit]
					if seen[gi] != epoch {
						seen[gi] = epoch
						nodes = append(nodes, g.nodeFor(gi, int32(ti)))
					}
				}
				if len(nodes) < 2 {
					continue
				}
				copy(pins[w:], nodes)
				w += int64(len(nodes))
				netWgt[e] = hyperNetScale
				xpins[e+1] = int32(w)
				e++
			}
		}(s)
	}
	wg.Wait()

	// Replication nets, two kinds per exploded group (see replWeights):
	// a group net spanning the centre and every replica, weight
	// hyperNetScale·updates, whose connectivity cost prices what
	// replication actually costs — each extra partition holding a copy is
	// one more site every update must reach — and 2-pin centre–replica
	// arm nets at the amortised weight ⌊hyperNetScale·updates/replicas⌋,
	// which give the flat λ−1 metric a per-move gradient toward
	// consolidating written groups. Rarely-written groups get weight-0
	// arms (omitted) and read-only groups no nets at all: their replicas
	// scatter for free, which is the point of replicating them.
	e := txnNets
	w := txnPins
	for gi := int32(0); int(gi) < numGroups; gi++ {
		if !g.exploded[gi] {
			continue
		}
		updates, armW := g.replWeights(gi)
		base := g.groupBase[gi]
		if updates > 0 {
			pins[w] = base
			w++
			for ri := int32(0); ri < g.accCount[gi]; ri++ {
				pins[w] = base + 1 + ri
				w++
			}
			netWgt[e] = hyperNetScale * updates
			xpins[e+1] = int32(w)
			e++
		}
		if armW > 0 {
			for ri := int32(0); ri < g.accCount[gi]; ri++ {
				pins[w] = base
				pins[w+1] = base + 1 + ri
				netWgt[e] = armW
				w += 2
				xpins[e+1] = int32(w)
				e++
			}
		}
	}
	return xpins, pins, netWgt, nil
}

// replWeights returns an exploded group's update count and the weight of
// its per-arm glue nets: ⌊hyperNetScale·updates/replicas⌋, i.e. the
// group net's weight amortised over its arms. Write-hot groups (updates
// comparable to accesses, like a TPC-C district) get arms near a whole
// transaction net's weight — a strong pull keeping replicas with their
// centre — while for read-mostly groups the floor division yields 0 and
// the arms are omitted, leaving their replicas free to scatter.
func (g *Graph) replWeights(gi int32) (updates, armWeight int64) {
	for _, f := range g.groupFlags(gi) {
		if f&flagWrite != 0 {
			updates++
		}
	}
	return updates, hyperNetScale * updates / int64(g.accCount[gi])
}

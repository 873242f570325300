package experiments

import (
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workloads"
)

// TestHyperDifferentialMatrix pins the hypergraph pipeline's quality and
// balance against the clique-expansion reference across a workload ×
// seed × k matrix. Both representations are scored with the honest
// replica-aware evaluator (reads served by any replica, writes reaching
// all of them); the hypergraph must stay within 10% relative plus two
// points absolute of the clique's distributed-transaction fraction —
// in practice it wins most cells outright — and must respect the
// partitioner's balance bound.
func TestHyperDifferentialMatrix(t *testing.T) {
	ws := []*workloads.Workload{
		workloads.TPCC(workloads.TPCCConfig{
			Warehouses: 4, Customers: 30, Items: 300, InitialOrders: 5, Txns: 3000, Seed: 2,
		}),
		workloads.YCSBGroups(workloads.YCSBGroupsConfig{
			Rows: 1600, GroupSize: 4, Txns: 3000, Seed: 1,
		}),
		workloads.Epinions(workloads.EpinionsConfig{
			Users: 500, Items: 250, Communities: 10, Txns: 3000, Seed: 1,
		}),
	}
	seeds := []int64{7, 13}
	ks := []int{2, 8, 64}
	if testing.Short() {
		seeds = seeds[:1]
		ks = []int{2, 8}
	}

	gopts := graph.Options{Replication: true, Coalesce: true, Seed: 4}
	for _, w := range ws {
		cg, err := graph.Build(w.Trace, gopts)
		if err != nil {
			t.Fatalf("%s: clique build: %v", w.Name, err)
		}
		hg, err := graph.BuildHyper(w.Trace, gopts)
		if err != nil {
			t.Fatalf("%s: hypergraph build: %v", w.Name, err)
		}
		if cg.NumNodes() != hg.NumNodes() {
			t.Fatalf("%s: node layouts diverge: %d vs %d", w.Name, cg.NumNodes(), hg.NumNodes())
		}
		var maxNW, totalNW int64
		for _, nw := range hg.HG.NWgt {
			totalNW += nw
			if nw > maxNW {
				maxNW = nw
			}
		}
		for _, seed := range seeds {
			for _, k := range ks {
				cparts, _, err := cg.Partition(k, metis.Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s seed %d k=%d: clique partition: %v", w.Name, seed, k, err)
				}
				hparts, _, err := hg.Partition(k, metis.Options{Seed: seed})
				if err != nil {
					t.Fatalf("%s seed %d k=%d: hypergraph partition: %v", w.Name, seed, k, err)
				}
				cfrac := partition.EvaluateAssignmentsCompact(cg.Compact, cg.DenseAssignments(cparts)).DistributedFrac()
				hfrac := partition.EvaluateAssignmentsCompact(hg.Compact, hg.DenseAssignments(hparts)).DistributedFrac()
				t.Logf("%s seed %d k=%d: clique dist %.1f%%, hyper dist %.1f%%",
					w.Name, seed, k, 100*cfrac, 100*hfrac)
				if limit := cfrac*1.10 + 0.02; hfrac > limit {
					t.Errorf("%s seed %d k=%d: hypergraph dist frac %.3f above tolerance %.3f (clique %.3f)",
						w.Name, seed, k, hfrac, limit, cfrac)
				}
				// Balance: the partitioner's own bound, 5% over perfect
				// plus one heaviest node of slack.
				limit := (totalNW*105+int64(100*k)-1)/int64(100*k) + maxNW
				for p, pw := range hg.PartWeights(hparts, k) {
					if pw > limit {
						t.Errorf("%s seed %d k=%d: partition %d weight %d over balance bound %d",
							w.Name, seed, k, p, pw, limit)
					}
				}
			}
		}
	}
}

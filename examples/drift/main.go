// Drift: the online-repartitioning control loop in miniature. A grouped
// key-value workload is partitioned and deployed; the group structure
// then shifts, transactions stream through the live capture window, the
// drift detector notices the deployed placement distributing them, and
// the loop repartitions — relabeling the fresh partitioning against the
// deployed one so the implied migration moves as few tuples as possible.
package main

import (
	"fmt"

	"schism/internal/graph"
	"schism/internal/live"
	"schism/internal/metis"
	"schism/internal/workloads"
)

func main() {
	const k = 4
	gopts := graph.Options{Coalesce: true, Seed: 7}
	mopts := metis.Options{Seed: 7}

	// Phase 0: transactions touch contiguous key quads. Phase 1: quads
	// re-pair keys across the old boundaries — the drift to adapt to.
	cfgA := workloads.YCSBGroupsConfig{Rows: 1600, GroupSize: 4, Txns: 2000, Phase: 0, Seed: 1}
	cfgB := cfgA
	cfgB.Phase, cfgB.Seed = 1, 2
	phaseA := workloads.YCSBGroups(cfgA)
	phaseB := workloads.YCSBGroups(cfgB)

	// Offline initial deployment from the phase-0 trace.
	rep, err := live.NewRepartitioner(live.RepartitionConfig{K: k, Graph: gopts, Metis: mopts})
	if err != nil {
		panic(err)
	}
	initial, err := rep.Repartition(phaseA.Trace, nil)
	if err != nil {
		panic(err)
	}
	_, tables := live.DeployLookup(phaseA.DB, k, phaseA.KeyColumns, initial.LocateFunc())

	// The control loop: capture window + drift detector + repartitioner.
	// (No cluster here, so routing entries flip logically; see
	// `experiments -run drift` for the full cluster run with tuple
	// migration.)
	ctrl, err := live.NewController(live.Config{
		K:      k,
		Window: live.WindowConfig{Capacity: 1500},
		Detector: live.DetectorConfig{
			MinWindow: 500, DistributedFloor: 0.05,
			DegradeFactor: 1.5, ImbalanceTrigger: -1,
		},
		Repartition: live.RepartitionConfig{Graph: gopts, Metis: mopts},
	}, tables, nil)
	if err != nil {
		panic(err)
	}

	feed := func(w *workloads.Workload, label string) {
		for i, tx := range w.Trace.Txns {
			ctrl.Record(tx.Accesses)
			if (i+1)%250 == 0 {
				if _, err := ctrl.Tick(); err != nil {
					panic(err)
				}
			}
		}
		fmt.Printf("%-12s window score: %v\n", label, ctrl.Score())
	}

	fmt.Println("=== online repartitioning under a group-structure shift ===")
	feed(phaseA, "pre-shift")
	feed(phaseB, "post-shift")

	for _, ad := range ctrl.Adaptations() {
		fmt.Printf("\nadaptation at txn %d (%s):\n", ad.AtTxn, ad.Reason)
		fmt.Printf("  before: %v\n", ad.Before)
		fmt.Printf("  after:  %v\n", ad.After)
		fmt.Printf("  movement: %d tuples relabeled vs %d with naive labels\n",
			ad.Diff.Moved, ad.NaiveDiff.Moved)
	}
}

package live

import (
	"fmt"
	"testing"

	"schism/internal/graph"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// driftRun is one full deterministic control-loop run; returned values are
// compared across runs for determinism.
type driftRun struct {
	baseline     Score
	trigger      Score // score that tripped the detector
	after        Score // post-adaptation score on the trigger window
	liveDist     float64
	offlineDist  float64
	movedRelabel int
	movedNaive   int
	adaptations  int
}

func runDriftScenario(t *testing.T) driftRun {
	t.Helper()
	const k = 4
	gopts := graph.Options{Coalesce: true, Seed: 7}
	mopts := metis.Options{Seed: 7}

	cfgA := workloads.YCSBGroupsConfig{Rows: 1600, GroupSize: 4, Txns: 2000, Phase: 0, Seed: 1}
	cfgB := cfgA
	cfgB.Phase, cfgB.Seed = 1, 2
	phaseA := workloads.YCSBGroups(cfgA)
	phaseB := workloads.YCSBGroups(cfgB)

	// Offline initial deployment: partition the phase-A trace from scratch
	// and cover every database tuple.
	rep := mustRep(t, RepartitionConfig{K: k, Graph: gopts, Metis: mopts})
	initial, err := rep.Repartition(phaseA.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, tables := DeployLookup(phaseA.DB, k, phaseA.KeyColumns, locateOf(initial, k))

	ctrl, err := NewController(Config{
		K:      k,
		Window: WindowConfig{Capacity: 1500},
		Detector: DetectorConfig{
			MinWindow: 500, DistributedFloor: 0.05, DegradeFactor: 1.5, ImbalanceTrigger: -1,
		},
		Repartition: RepartitionConfig{Graph: gopts, Metis: mopts},
	}, tables, nil)
	if err != nil {
		t.Fatal(err)
	}

	feed := func(tr *workload.Trace, every int) {
		for i, tx := range tr.Txns {
			ctrl.Record(tx.Accesses)
			if (i+1)%every == 0 {
				if _, err := ctrl.Tick(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Phase A traffic establishes the baseline.
	feed(phaseA.Trace, 500)
	base, ok := ctrl.det.Baseline()
	if !ok {
		t.Fatal("no baseline established")
	}
	// Phase B: the group structure shifts; the loop must adapt.
	feed(phaseB.Trace, 250)
	ads := ctrl.Adaptations()
	if len(ads) == 0 {
		t.Fatal("drift never triggered an adaptation")
	}

	// From-scratch offline rerun on the pure post-shift trace.
	offline, err := mustRep(t, RepartitionConfig{K: k, Graph: gopts, Metis: mopts}).
		Repartition(phaseB.Trace, nil)
	if err != nil {
		t.Fatal(err)
	}
	offLocate := locateOf(offline, k)

	return driftRun{
		baseline:     base,
		trigger:      ads[0].Before,
		after:        ads[0].After,
		liveDist:     ScoreWindow(phaseB.Trace, k, ctrl.Locate).Distributed,
		offlineDist:  ScoreWindow(phaseB.Trace, k, offLocate).Distributed,
		movedRelabel: ads[0].Diff.Moved,
		movedNaive:   ads[0].NaiveDiff.Moved,
		adaptations:  len(ads),
	}
}

// locateOf wraps a repartitioning as a LocateFunc with the hash fallback
// the deployed lookup applies to never-traced tuples.
func locateOf(r *Repartition, k int) LocateFunc {
	m := make(map[workload.TupleID][]int, len(r.Tuples))
	for i, id := range r.Tuples {
		m[id] = r.Assignments[i]
	}
	return func(id workload.TupleID) []int {
		if parts, ok := m[id]; ok {
			return parts
		}
		return []int{partition.HashPart(id.Key, k)}
	}
}

func TestControllerAdaptsToDrift(t *testing.T) {
	run := runDriftScenario(t)

	// The shift must degrade the deployment markedly before adaptation...
	if run.trigger.Distributed < 2*run.baseline.Distributed {
		t.Fatalf("shift did not degrade: baseline %v, trigger %v", run.baseline, run.trigger)
	}
	// ...and adaptation must restore it on the trigger window...
	if run.after.Distributed > run.trigger.Distributed/2 {
		t.Fatalf("adaptation did not restore: trigger %v, after %v", run.trigger, run.after)
	}
	// ...to within 1.2x of a from-scratch offline rerun on the pure
	// post-shift workload (plus 2pp absolute slack: the live window still
	// holds residual pre-shift transactions, and offline can reach 0%).
	if run.liveDist > 1.2*run.offlineDist+0.02 {
		t.Fatalf("live %.3f vs offline %.3f exceeds 1.2x", run.liveDist, run.offlineDist)
	}
	// Minimal-movement relabeling must beat naive label assignment.
	if run.movedRelabel >= run.movedNaive {
		t.Fatalf("relabeling moved %d tuples, naive %d — no savings", run.movedRelabel, run.movedNaive)
	}
	t.Logf("baseline=%v trigger=%v after=%v live=%.3f offline=%.3f moved=%d naive=%d",
		run.baseline, run.trigger, run.after, run.liveDist, run.offlineDist,
		run.movedRelabel, run.movedNaive)
}

func TestControllerDeterministic(t *testing.T) {
	a := runDriftScenario(t)
	b := runDriftScenario(t)
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatalf("same-seed runs differ:\n%+v\n%+v", a, b)
	}
}

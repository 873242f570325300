package experiments

import (
	"testing"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/storage"
	"schism/internal/workloads"
)

// TestDriftSimScenarios pins the ISSUE-3 acceptance criteria on the
// deterministic control-loop simulation of both drift scenarios: the
// shift triggers an adaptation, the adapted deployment lands within 1.2x
// (+2pp) of a from-scratch offline rerun on the post-shift workload, and
// minimal-movement relabeling moves fewer tuples than naive labels.
func TestDriftSimScenarios(t *testing.T) {
	for _, name := range []string{"ycsb", "tpcc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			sim, err := DriftSimRun(name, Scale{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if sim.Adaptations == 0 {
				t.Fatalf("no adaptation: %+v", sim)
			}
			if sim.LiveDist > 1.2*sim.OfflineDist+0.02 {
				t.Fatalf("live %.3f vs offline %.3f exceeds 1.2x", sim.LiveDist, sim.OfflineDist)
			}
			if sim.MovedRelabel >= sim.MovedNaive {
				t.Fatalf("relabeling saved nothing: %d vs %d", sim.MovedRelabel, sim.MovedNaive)
			}
			t.Logf("%s: baseline=%v trigger=%v after=%v live=%.3f offline=%.3f moved=%d/%d",
				name, sim.Baseline, sim.Trigger, sim.After, sim.LiveDist, sim.OfflineDist,
				sim.MovedRelabel, sim.MovedNaive)
		})
	}
}

// TestDriftSimDeterministic: same-seed simulations are bit-identical.
func TestDriftSimDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by TestDriftSimScenarios at the same scale")
	}
	a, err := DriftSimRun("ycsb", Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DriftSimRun("ycsb", Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed sims differ:\n%+v\n%+v", a, b)
	}
}

// TestDriftClusterSmoke drives the live cluster path (capture hook,
// background controller, migration executor under traffic) at quick
// scale: every phase must commit work and the loop must adapt without
// failed migration batches.
func TestDriftClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster drift run takes ~1s of wall-clock load")
	}
	cl, err := DriftClusterRun("ycsb", Scale{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Phases) != 3 {
		t.Fatalf("phases = %d", len(cl.Phases))
	}
	for _, p := range cl.Phases {
		if p.Committed == 0 {
			t.Fatalf("phase %s committed nothing", p.Name)
		}
	}
	if cl.Adaptations == 0 {
		t.Fatal("cluster loop never adapted")
	}
	if cl.Migration.Moved == 0 {
		t.Fatal("migration moved nothing")
	}
	t.Logf("cluster: %+v migration: %v", cl.Phases, cl.Migration)
}

// TestPhaseStreamsShareOneCluster runs two back-to-back
// TPCCNewOrderPaymentStream phases on one small cluster through
// phaseStream, as the TPC-C drift scenario's cluster phases do. A stream's
// history keys depend only on (client, sequence), so the phases only stay
// clear of duplicate keys because phaseStream gives them disjoint client
// ids.
func TestPhaseStreamsShareOneCluster(t *testing.T) {
	cfg := workloads.TPCCConfig{Warehouses: 2, Customers: 10, Items: 50, InitialOrders: 3}
	c := cluster.New(cluster.Config{Nodes: 1}, func(int) *storage.Database {
		db := storage.NewDatabase()
		workloads.TPCCPopulate(db, cfg, 1, cfg.Warehouses, true)
		return db
	})
	defer c.Close()
	co := cluster.NewCoordinator(c, workloads.TPCCManual(cfg, 1))
	const clients, ops = 2, 30
	for phase := 0; phase < 2; phase++ {
		r := driver.Run(co, driver.Config{Clients: clients, Ops: ops, Seed: int64(11 + phase)},
			phaseStream(workloads.TPCCNewOrderPaymentStream(cfg), phase, clients))
		if r.Failed != 0 || r.Committed != clients*ops {
			t.Fatalf("phase %d: committed %d, failed %d; want %d committed", phase, r.Committed, r.Failed, clients*ops)
		}
	}
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/graph"
	"schism/internal/live"
	"schism/internal/metis"
	"schism/internal/obs"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// The drift experiments exercise the internal/live control loop end to
// end on two workload shifts the paper's offline pipeline cannot follow:
//
//   - YCSB hotspot shift: transactions co-access small key groups; at the
//     shift the group structure re-pairs keys across the old partition
//     boundaries, so the deployed placement suddenly distributes most
//     transactions;
//   - TPC-C warehouse-skew rotation: the hot warehouse moves, leaving the
//     deployed placement badly load-imbalanced while its
//     distributed-transaction rate stays flat.
//
// Each scenario runs twice: a deterministic trace-driven simulation of
// the control loop (capture → detect → repartition → relabel), and a live
// cluster run where the migration executor moves tuples through the nodes
// while closed-loop traffic continues.

// driftScenario bundles everything both drivers need.
type driftScenario struct {
	name     string
	k        int
	gopts    graph.Options
	mopts    metis.Options
	window   live.WindowConfig
	detector live.DetectorConfig
	check    int // Tick / background check cadence in transactions
	// Cluster-mode overrides: commit rates under real locking are far
	// lower than trace feed rates, so the background loop checks (and
	// accepts) smaller windows. Zero means "same as the sim values".
	clusterDetector live.DetectorConfig
	clusterCheck    int

	db         *storage.Database
	keyCols    map[string]string
	initialTr  *workload.Trace // pre-shift trace (initial deployment + baseline)
	shiftedTr  *workload.Trace // post-shift trace (drift feed + offline comparator)
	before     driver.StreamMaker
	after      driver.StreamMaker
	clients    int
	ops        int // transactions per client per cluster phase
	networkLat time.Duration
}

// DriftSim is the deterministic control-loop outcome.
type DriftSim struct {
	Scenario string
	// Baseline, Trigger and After score the deployment on the live window
	// before the shift, at the moment the detector fired, and right after
	// adaptation.
	Baseline, Trigger, After live.Score
	// LiveDist / OfflineDist evaluate the adapted deployment and a
	// from-scratch offline rerun on the pure post-shift trace.
	LiveDist, OfflineDist float64
	// MovedRelabel / MovedNaive count the tuples the migration would move
	// with and without minimal-movement relabeling.
	MovedRelabel, MovedNaive int
	Adaptations              int
	// RouterBytes is the deployed routing tables' memory footprint
	// (compressed lookup representations; App. C.1).
	RouterBytes int64
}

// DriftPhaseStats is one cluster load phase.
type DriftPhaseStats struct {
	Name string
	*driver.Result
}

// DriftCluster is the live cluster outcome.
type DriftCluster struct {
	Scenario    string
	Phases      []DriftPhaseStats // before / during / after the shift
	Migration   live.MigrationStats
	Adaptations int
	// Baseline and Final score the deployment against the capture window
	// at baseline time and at the end of the run.
	Baseline, Final live.Score
	// RouterBytes is the deployed routing tables' memory footprint.
	RouterBytes int64
	// Cycles is each adaptation's phase breakdown (graph build → cut →
	// relabel → plan → migrate).
	Cycles []live.CyclePhases
	// Metrics is the run's observability snapshot (live-phase histograms,
	// migration timeline events, cluster counters).
	Metrics *obs.Snapshot
}

// DriftResult combines both drivers for one scenario.
type DriftResult struct {
	Sim     DriftSim
	Cluster DriftCluster
}

// --- scenario construction ---

func ycsbDriftScenario(s Scale) driftScenario {
	cfgA := workloads.YCSBGroupsConfig{
		Rows: s.scaled(8000, 1600), GroupSize: 4,
		Txns: s.scaled(6000, 2000), Phase: 0, Seed: 1,
	}
	cfgB := cfgA
	cfgB.Phase, cfgB.Seed = 1, 2
	phaseA := workloads.YCSBGroups(cfgA)
	phaseB := workloads.YCSBGroups(cfgB)
	return driftScenario{
		name:   "YCSB hotspot shift",
		k:      4,
		gopts:  graph.Options{Coalesce: true, Seed: 7},
		mopts:  metis.Options{Seed: 7},
		window: live.WindowConfig{Capacity: s.scaled(4000, 1500)},
		detector: live.DetectorConfig{
			MinWindow: 500, DistributedFloor: 0.05,
			DegradeFactor: 1.5, ImbalanceTrigger: -1,
		},
		check:      s.scaled(1000, 250),
		db:         phaseA.DB,
		keyCols:    phaseA.KeyColumns,
		initialTr:  phaseA.Trace,
		shiftedTr:  phaseB.Trace,
		before:     workloads.YCSBGroupsStream(cfgA),
		after:      workloads.YCSBGroupsStream(cfgB),
		clients:    8,
		ops:        s.scaled(1200, 400),
		networkLat: 20 * time.Microsecond,
	}
}

func tpccDriftScenario(s Scale) driftScenario {
	base := workloads.TPCCConfig{
		Warehouses: 8, Customers: s.scaled(30, 15), Items: s.scaled(200, 100),
		InitialOrders: s.scaled(10, 6), Txns: s.scaled(8000, 2500), Seed: 3,
	}
	cfgA := base
	cfgA.PickWarehouse = workloads.HotWarehousePicker(1, 0.3)
	cfgB := base
	cfgB.Seed = 4
	cfgB.PickWarehouse = workloads.HotWarehousePicker(5, 0.3)
	phaseA := workloads.TPCC(cfgA)
	phaseB := workloads.TPCC(cfgB)
	return driftScenario{
		name:   "TPC-C warehouse-skew rotation",
		k:      4,
		gopts:  graph.Options{Coalesce: true, Replication: true, Seed: 7},
		mopts:  metis.Options{Seed: 7},
		window: live.WindowConfig{Capacity: s.scaled(4000, 2000)},
		detector: live.DetectorConfig{
			MinWindow: 800, DistributedFloor: 0.05,
			DegradeFactor: 2.5, ImbalanceTrigger: 1.5,
		},
		check:     s.scaled(1000, 500),
		db:        phaseA.DB,
		keyCols:   phaseA.KeyColumns,
		initialTr: phaseA.Trace,
		shiftedTr: phaseB.Trace,
		clusterDetector: live.DetectorConfig{
			// Closed-loop contention self-throttles the hot warehouse, so
			// the committed stream shows a flatter skew than the offered
			// load; trigger earlier than the trace-driven sim.
			MinWindow: 250, DistributedFloor: 0.05,
			DegradeFactor: 2.5, ImbalanceTrigger: 1.35,
		},
		clusterCheck: 100,
		before:       workloads.TPCCNewOrderPaymentStream(cfgA),
		after:        workloads.TPCCNewOrderPaymentStream(cfgB),
		clients:      4,
		ops:          s.scaled(1200, 600),
		networkLat:   0, // statement-heavy mix: sleep granularity would dwarf real delays
	}
}

// scenarioByName resolves "ycsb" / "tpcc".
func scenarioByName(name string, s Scale) (driftScenario, error) {
	switch name {
	case "ycsb":
		return ycsbDriftScenario(s), nil
	case "tpcc":
		return tpccDriftScenario(s), nil
	}
	return driftScenario{}, fmt.Errorf("unknown drift scenario %q (want ycsb|tpcc)", name)
}

// deployedLocate resolves tuples through the tables DeployLookup fills
// from f, as Controller.Locate does, so the offline comparator and the
// live deployment are judged under identical unknown-tuple policies:
// tuples present in db get f's placement (key-hash when f never saw
// them), and tuples born after the db image (trace INSERTs) have no
// entry, which scoring counts as unconstrained.
func (sc driftScenario) deployedLocate(f live.LocateFunc) live.LocateFunc {
	l, _ := live.DeployLookup(sc.db, sc.k, sc.keyCols, f)
	return func(id workload.TupleID) []int {
		parts, _ := l.Router.Locate(id.Table, id.Key)
		return parts
	}
}

// DriftSimRun runs the deterministic control-loop simulation of a
// scenario ("ycsb" or "tpcc"): the pre-shift trace establishes the
// deployment and baseline, the post-shift trace streams through the
// capture window until the detector fires and the loop adapts.
func DriftSimRun(name string, s Scale) (DriftSim, error) {
	sc, err := scenarioByName(name, s)
	if err != nil {
		return DriftSim{}, err
	}
	rep, err := live.NewRepartitioner(live.RepartitionConfig{K: sc.k, Graph: sc.gopts, Metis: sc.mopts})
	if err != nil {
		return DriftSim{}, err
	}
	initial, err := rep.Repartition(sc.initialTr, nil)
	if err != nil {
		return DriftSim{}, err
	}
	deployed, tables := live.DeployLookup(sc.db, sc.k, sc.keyCols, initial.LocateFunc())
	ctrl, err := live.NewController(live.Config{
		K: sc.k, Window: sc.window, Detector: sc.detector,
		Repartition: live.RepartitionConfig{Graph: sc.gopts, Metis: sc.mopts},
	}, tables, nil)
	if err != nil {
		return DriftSim{}, err
	}

	feed := func(tr *workload.Trace) error {
		for i, tx := range tr.Txns {
			ctrl.Record(tx.Accesses)
			if (i+1)%sc.check == 0 {
				if _, err := ctrl.Tick(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := feed(sc.initialTr); err != nil {
		return DriftSim{}, err
	}
	baseline, _ := ctrl.Baseline()
	if err := feed(sc.shiftedTr); err != nil {
		return DriftSim{}, err
	}

	out := DriftSim{Scenario: sc.name, Baseline: baseline, RouterBytes: deployed.MemoryBytes()}
	ads := ctrl.Adaptations()
	out.Adaptations = len(ads)
	if len(ads) > 0 {
		out.Trigger, out.After = ads[0].Before, ads[0].After
		out.MovedRelabel, out.MovedNaive = ads[0].Diff.Moved, ads[0].NaiveDiff.Moved
	}

	offrep, err := live.NewRepartitioner(live.RepartitionConfig{K: sc.k, Graph: sc.gopts, Metis: sc.mopts})
	if err != nil {
		return DriftSim{}, err
	}
	offline, err := offrep.Repartition(sc.shiftedTr, nil)
	if err != nil {
		return DriftSim{}, err
	}
	out.LiveDist = live.ScoreWindow(sc.shiftedTr, sc.k, ctrl.Locate).Distributed
	out.OfflineDist = live.ScoreWindow(sc.shiftedTr, sc.k, sc.deployedLocate(offline.LocateFunc())).Distributed
	return out, nil
}

// DriftClusterRun runs the live cluster version: nodes populated per the
// initial deployment, closed-loop clients, capture hook feeding the
// background controller, and the migration executor physically moving
// tuples between phases while traffic continues.
func DriftClusterRun(name string, s Scale) (DriftCluster, error) {
	sc, err := scenarioByName(name, s)
	if err != nil {
		return DriftCluster{}, err
	}
	return runDriftClusterScenario(sc)
}

// runDriftClusterScenario is the scenario-parameterised cluster driver.
func runDriftClusterScenario(sc driftScenario) (DriftCluster, error) {
	rep, err := live.NewRepartitioner(live.RepartitionConfig{K: sc.k, Graph: sc.gopts, Metis: sc.mopts})
	if err != nil {
		return DriftCluster{}, err
	}
	initial, err := rep.Repartition(sc.initialTr, nil)
	if err != nil {
		return DriftCluster{}, err
	}
	deployed, tables := live.DeployLookup(sc.db, sc.k, sc.keyCols, initial.LocateFunc())

	schemas := make(map[string]*storage.TableSchema, len(sc.db.TableNames()))
	for _, tn := range sc.db.TableNames() {
		schemas[tn] = sc.db.Table(tn).Schema
	}
	reg := obs.NewRegistry()
	c, co, err := cluster.Deploy(cluster.Config{
		Nodes: sc.k, WorkersPerNode: 4,
		ServiceTime: 2 * time.Microsecond, NetworkDelay: sc.networkLat,
		LockTimeout: 2 * time.Second,
		Obs:         reg,
	}, sc.db, deployed)
	if err != nil {
		return DriftCluster{}, err
	}
	defer c.Close()
	exec := live.NewExecutor(co, schemas, tables)
	det, check := sc.detector, sc.check
	if sc.clusterDetector != (live.DetectorConfig{}) {
		det = sc.clusterDetector
	}
	if sc.clusterCheck > 0 {
		check = sc.clusterCheck
	}
	ctrl, err := live.NewController(live.Config{
		K: sc.k, Window: sc.window, Detector: det, CheckEvery: check,
		Repartition: live.RepartitionConfig{Graph: sc.gopts, Metis: sc.mopts},
		Obs:         reg,
	}, tables, exec)
	if err != nil {
		return DriftCluster{}, err
	}
	ctrl.Start()
	co.SetCapture(ctrl.Record)

	out := DriftCluster{Scenario: sc.name, RouterBytes: deployed.MemoryBytes()}
	// Each phase runs a fixed transaction count, not a wall-clock
	// duration, so the committed stream the detector sees does not shrink
	// when the machine is loaded.
	run := func(phase string, mk driver.StreamMaker, seed int64) {
		r := driver.Run(co, driver.Config{Clients: sc.clients, Ops: sc.ops, Seed: seed},
			phaseStream(mk, len(out.Phases), sc.clients))
		out.Phases = append(out.Phases, DriftPhaseStats{Name: phase, Result: r})
	}
	run("before", sc.before, 11)
	run("during", sc.after, 12) // the shift: adaptation fires mid-phase
	run("after", sc.after, 13)

	co.SetCapture(nil)
	ctrl.Stop()
	out.Final = ctrl.Score()
	out.Baseline, _ = ctrl.Baseline()
	for _, ad := range ctrl.Adaptations() {
		out.Adaptations++
		out.Migration.Moved += ad.Migration.Moved
		out.Migration.Skipped += ad.Migration.Skipped
		out.Migration.Batches += ad.Migration.Batches
		out.Migration.FailedBatches += ad.Migration.FailedBatches
		out.Migration.Aborts += ad.Migration.Aborts
		out.Migration.Elapsed += ad.Migration.Elapsed
		out.Cycles = append(out.Cycles, ad.Phases)
	}
	out.Metrics = reg.Snapshot()
	return out, nil
}

// phaseStream gives phase p of a run on one cluster the client ids
// [p*clients, (p+1)*clients), so no two phases share a client id. A TPC-C
// stream derives its history keys from (client, sequence) alone: without
// the offset a later phase would re-insert an earlier phase's history
// rows and fail on a duplicate key.
func phaseStream(mk driver.StreamMaker, phase, clients int) driver.StreamMaker {
	return func(client int, seed int64) driver.Stream { return mk(phase*clients+client, seed) }
}

// Drift runs both drivers for one scenario.
func Drift(name string, s Scale) (DriftResult, error) {
	sim, err := DriftSimRun(name, s)
	if err != nil {
		return DriftResult{}, err
	}
	cl, err := DriftClusterRun(name, s)
	if err != nil {
		return DriftResult{}, err
	}
	return DriftResult{Sim: sim, Cluster: cl}, nil
}

// PrintDrift renders one scenario's results.
func PrintDrift(w io.Writer, r DriftResult) {
	fmt.Fprintf(w, "Drift scenario: %s\n", r.Sim.Scenario)
	fmt.Fprintf(w, "control loop (deterministic):\n")
	fmt.Fprintf(w, "  routing tables: %d bytes\n", r.Sim.RouterBytes)
	fmt.Fprintf(w, "  baseline   %v\n", r.Sim.Baseline)
	if r.Sim.Adaptations == 0 {
		fmt.Fprintf(w, "  no adaptation triggered\n")
	} else {
		fmt.Fprintf(w, "  trigger    %v\n", r.Sim.Trigger)
		fmt.Fprintf(w, "  adapted    %v\n", r.Sim.After)
		fmt.Fprintf(w, "  post-shift %%distributed: live %.1f%% vs offline-from-scratch %.1f%%\n",
			100*r.Sim.LiveDist, 100*r.Sim.OfflineDist)
		fmt.Fprintf(w, "  movement: %d tuples relabeled vs %d naive (%.0f%% saved)\n",
			r.Sim.MovedRelabel, r.Sim.MovedNaive, 100*(1-movedRatio(r.Sim)))
	}
	if len(r.Cluster.Phases) == 0 {
		return
	}
	fmt.Fprintf(w, "cluster (live traffic):\n")
	var rows [][]string
	for _, p := range r.Cluster.Phases {
		rows = append(rows, []string{
			p.Name,
			fmt.Sprintf("%.0f", p.Throughput()),
			pct(p.DistributedFrac()),
			fmt.Sprintf("%d", p.Aborts),
			fmt.Sprintf("%d", p.Failed),
		})
	}
	table(w, []string{"phase", "tps", "%distributed", "aborts", "failed"}, rows)
	fmt.Fprintf(w, "  window: baseline %v -> final %v\n", r.Cluster.Baseline, r.Cluster.Final)
	fmt.Fprintf(w, "  adaptations=%d migration: %v\n", r.Cluster.Adaptations, r.Cluster.Migration)
	for i, ph := range r.Cluster.Cycles {
		fmt.Fprintf(w, "  cycle %d phases: graph %v cut %v relabel %v plan %v migrate %v\n",
			i+1, ph.Graph.Round(time.Microsecond), ph.Cut.Round(time.Microsecond),
			ph.Relabel.Round(time.Microsecond), ph.Plan.Round(time.Microsecond),
			ph.Migrate.Round(time.Millisecond))
	}
	printMetrics(w, r.Sim.Scenario+" cluster run", r.Cluster.Metrics)
}

func movedRatio(s DriftSim) float64 {
	if s.MovedNaive == 0 {
		return 1
	}
	return float64(s.MovedRelabel) / float64(s.MovedNaive)
}

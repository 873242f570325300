package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"schism/internal/cluster"
	"schism/internal/graph"
	"schism/internal/live"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

const (
	liveK = 8
	// rotateEvery is how many cycles the hot warehouse stays put.
	rotateEvery = 6
	hotFrac     = 0.3
	// movedPerTxn is the quantity of movement the allocation cost of a
	// captured transaction is priced at: about what the counted cycles move
	// (2.1 tuples per transaction at the median seed).
	movedPerTxn = 2
)

// liveState is live-tpcc's set-up: a deployed placement on an idle
// cluster, the window that produced it, and the rest of the trace.
type liveState struct {
	w      *workloads.Workload
	rest   []*workload.Txn // trace after the initial window
	win    *live.Window
	rep    *live.Repartitioner
	det    *live.Detector
	lookup *partition.Lookup
	tables map[string]*live.SyncTable
	c      *cluster.Cluster
	co     *cluster.Coordinator
	exec   *live.Executor
}

func (s liveState) close() {
	if s.c != nil {
		s.c.Close()
	}
}

// locate resolves a tuple through the deployed routing tables, as
// live.Controller does.
func (s liveState) locate(id workload.TupleID) []int {
	if t := s.tables[id.Table]; t != nil {
		if parts, ok := t.Locate(id.Key); ok {
			return parts
		}
	}
	return nil
}

// rotatingHotspot sends hotFrac of transactions to one warehouse and
// moves that warehouse on after every period draws. The trace generator
// draws exactly once per transaction, so the hotspot turns on a
// transaction count and equal seeds give equal traces.
func rotatingHotspot(start, period int) func(*rand.Rand, int) int {
	draws := 0
	return func(rng *rand.Rand, warehouses int) int {
		// A stride of 5 warehouses moves the hotspot well away from the
		// partition that held it.
		hot := (max(draws-start, 0)/period*5)%warehouses + 1
		draws++
		if rng.Float64() < hotFrac {
			return hot
		}
		return 1 + rng.Intn(warehouses)
	}
}

// runLiveTPCC measures the live loop, driven from a trace so that every
// count repeats: each cycle records a batch of transactions into the
// window, scores the deployment, repartitions warm, plans and migrates.
// One transaction here is one captured transaction adapted to.
func runLiveTPCC(e *env) error {
	window, perCycle := e.scaled(4000, 400), e.scaled(1000, 100)
	// countedCycles is the fixed work every count and cost metric covers,
	// so that moved tuples, window scores and allocations per transaction
	// are taken over the same cycles whatever the machine's speed and
	// repeat for a seed. A run whose measured section is not over by then
	// keeps cycling (up to maxCycles) to give the cycle-time median more
	// samples. loadedCycles follow in a traced run, with a client running
	// against the cluster while tuples move.
	countedCycles, loadedCycles := e.scaled(24, 6), e.scaled(4, 1)
	maxCycles := 2 * countedCycles
	cycles := maxCycles
	if e.tr != nil {
		cycles += loadedCycles
	}
	tcfg := workloads.TPCCConfig{
		Warehouses: 16, Districts: 10, Customers: 30, Items: 200, InitialOrders: 10,
		// The generator drops the odd empty transaction; 5% spare covers it.
		Txns: (window + cycles*perCycle) * 21 / 20, Seed: e.cfg.seed,
	}
	e.sizes["tpcc"] = tpccSizes(tcfg)
	e.sizes["window"] = window
	e.sizes["txns_per_cycle"] = perCycle
	e.sizes["counted_cycles"] = countedCycles
	e.sizes["nodes"] = liveK
	gopts := graph.Options{Coalesce: true, Replication: true, Seed: e.cfg.seed}
	mopts := metis.Options{Seed: e.cfg.seed}

	st, err := setups(e, func() (liveState, error) {
		cfg := tcfg
		cfg.PickWarehouse = rotatingHotspot(window, rotateEvery*perCycle)
		s := liveState{w: workloads.TPCC(cfg), win: live.NewWindow(live.WindowConfig{Capacity: window}), det: live.NewDetector(live.DetectorConfig{})}
		if s.w.Trace.Len() < window+cycles*perCycle {
			return s, fmt.Errorf("trace has %d transactions, need %d", s.w.Trace.Len(), window+cycles*perCycle)
		}
		for _, tx := range s.w.Trace.Txns[:window] {
			s.win.Record(tx.Accesses)
		}
		s.rest = s.w.Trace.Txns[window:]
		var err error
		// WarmStart on, every other policy field at its default, and no
		// Hyper: the cycle runs whatever representation the library
		// defaults to.
		if s.rep, err = live.NewRepartitioner(live.RepartitionConfig{K: liveK, Graph: gopts, Metis: mopts, WarmStart: true}); err != nil {
			return s, err
		}
		snap := s.win.Snapshot()
		initial, err := s.rep.Repartition(snap, nil)
		if err != nil {
			return s, fmt.Errorf("initial repartition: %w", err)
		}
		s.lookup, s.tables = live.DeployLookup(s.w.DB, liveK, s.w.KeyColumns, initial.LocateFunc())
		s.det.SetBaseline(live.ScoreWindow(snap, liveK, s.locate))

		schemas := map[string]*storage.TableSchema{}
		for _, tn := range s.w.DB.TableNames() {
			schemas[tn] = s.w.DB.Table(tn).Schema
		}
		s.c = cluster.New(clusterConfig(liveK, 1, nil), func(node int) *storage.Database {
			return cluster.SplitDatabase(s.w.DB, s.lookup, node)
		})
		s.co = cluster.NewCoordinator(s.c, s.lookup)
		s.exec = live.NewExecutor(s.co, schemas, s.tables)
		return s, nil
	}, liveState.close)
	if err != nil {
		return err
	}
	defer st.close()

	var ph livePhases
	var slices []slice
	var decideAllocs, decideKB []float64 // per transaction, each counted cycle without its Executor.Apply
	var migrated slice                   // Executor.Apply over the counted cycles, in tuples moved
	var scores []float64
	moved, planned, failedBatches := 0, 0, 0
	var routingBytes int64
	begin := time.Now()
	n := 0
	for ; n < countedCycles || (n < maxCycles && time.Since(begin).Seconds() < e.cfg.seconds); n++ {
		before := readUsage()
		out, err := st.cycle(e, &ph, n, perCycle)
		if err != nil {
			return err
		}
		e.attempted += 1 + int64(out.stats.Batches)
		e.failed += int64(out.stats.FailedBatches)
		slices = append(slices, readUsage().since(before, float64(perCycle)))
		if n < countedCycles {
			cyc := slices[n]
			decideAllocs = append(decideAllocs, (cyc.mallocs-out.migrate.mallocs)/cyc.units)
			decideKB = append(decideKB, (cyc.bytes-out.migrate.bytes)/cyc.units/1024)
			migrated.mallocs += out.migrate.mallocs
			migrated.bytes += out.migrate.bytes
			migrated.units += out.migrate.units
			scores = append(scores, out.score.Distributed)
			moved += out.stats.Moved
			planned += out.planned
			failedBatches += out.stats.FailedBatches
			routingBytes = st.lookup.MemoryBytes()
		}
	}
	e.sizes["cycles"] = n

	// Costs cover the counted cycles only, so that they too are taken over
	// the same work whatever the machine's speed.
	e.setCosts(slices[:countedCycles], median(ph.cycle))
	// Three quarters of a cycle's allocations are migration's, and how many
	// tuples a seed's cycles move (41 000 to 60 000 over the counted ones)
	// is the partitioner's outcome, live.moved_tuples, not a cost. So the
	// allocation cost prices movement at a fixed quantity: what deciding
	// costs per transaction plus movedPerTxn times what moving one tuple
	// costs. Both parts are held to the bound; the amount moved is not.
	e.set("live.migrate_allocs_per_tuple", ratio(migrated.mallocs, migrated.units))
	e.set("allocs_per_txn", median(decideAllocs)+movedPerTxn*ratio(migrated.mallocs, migrated.units))
	e.set("alloc_kb_per_txn", median(decideKB)+movedPerTxn*ratio(migrated.bytes, migrated.units)/1024)
	e.series["decide_allocs_per_txn"] = decideAllocs
	e.set("min_sites_per_txn", 1+sum(scores)/float64(len(scores)))
	e.counts["moved_tuples"] = moved
	e.counts["routing_bytes"] = routingBytes
	e.counts["window_scores"] = scores
	e.series["cycle_ms"] = ph.cycle

	e.check("no-failed-batches", failedBatches == 0, "%d migration batches failed", failedBatches)
	e.check("moved-equals-planned", moved == planned, "moved %d tuples, planned %d", moved, planned)
	checkPlacement(e, st)

	if e.tr == nil {
		return nil
	}
	e.set("lookup.routing_bytes", float64(routingBytes))
	e.set("live.moved_tuples", float64(moved))
	e.set("live.record_ns_per_txn", 1e6*median(ph.record)/float64(perCycle))
	e.set("live.snapshot_ms", median(ph.snapshot))
	e.set("live.score_ms", median(ph.score))
	e.set("live.graph_ms", median(ph.graph))
	e.set("live.cut_ms", median(ph.cut))
	e.set("live.relabel_ms", median(ph.relabel))
	e.set("live.plan_ms", median(ph.plan))
	e.set("live.migrate_ms", median(ph.migrate))
	e.set("live.migrate_us_per_tuple", 1e3*ratio(sum(ph.migrate), sum(ph.moved)))
	e.set("live.unattributed_ms", median(ph.dark))
	e.set("live.full_cycles", float64(ph.full))
	e.set("live.warm_cycles", float64(ph.warm))
	e.set("live.cycle_ms_max", maxOf(ph.cycle))
	if err := st.loaded(e, n, loadedCycles, perCycle, tcfg); err != nil {
		return err
	}
	return probeGraph(e, st.win.Snapshot(), liveK, gopts, mopts)
}

// livePhases collects each cycle's phase times in ms.
type livePhases struct {
	record, snapshot, score, graph, cut, relabel, plan, migrate, dark, cycle []float64
	moved                                                                    []float64
	full, warm                                                               int
}

type cycleOut struct {
	score   live.Score
	stats   live.MigrationStats
	planned int
	migrate slice // Executor.Apply alone, in tuples moved
}

// cycle runs live cycle n through the library's public pieces, in the
// order live.Controller.Tick runs them, timing each from outside.
func (s *liveState) cycle(e *env, ph *livePhases, n, perCycle int) (cycleOut, error) {
	var out cycleOut
	id := int64(n)
	root := -1
	start := time.Now()
	timed := func(name string, fn func()) float64 {
		if e.tr == nil {
			t0 := time.Now()
			fn()
			return ms(time.Since(t0))
		}
		return ms(e.buf.timed(id, name, root, fn))
	}
	if e.tr != nil {
		root = e.buf.add(id, "cycle", -1, start, start)
	}

	batch := s.rest[n*perCycle : (n+1)*perCycle]
	record := timed("Window.Record", func() {
		for _, tx := range batch {
			s.win.Record(tx.Accesses)
		}
	})
	var snap *workload.Trace
	snapshot := timed("Window.Snapshot", func() { snap = s.win.Snapshot() })
	score := timed("live.ScoreWindow", func() { out.score = live.ScoreWindow(snap, liveK, s.locate) })
	drift := s.det.Drift(out.score)

	var rep *live.Repartition
	var err error
	timed("Repartitioner.RepartitionDrift", func() { rep, err = s.rep.RepartitionDrift(snap, s.locate, drift) })
	if err != nil {
		return out, fmt.Errorf("cycle %d: repartition: %w", n, err)
	}
	if e.tr != nil {
		e.buf.sequence(len(e.buf.spans)-1,
			[]string{"live.graph", "live.cut", "live.relabel"},
			[]time.Duration{rep.PhaseGraph, rep.PhaseCut, rep.PhaseRelabel})
	}
	var plan live.Plan
	planMS := timed("live.BuildPlanSets", func() { plan = live.BuildPlanSets(rep.Tuples, rep.Deployed, rep.Assignments) })
	beforeApply := readUsage()
	migrate := timed("Executor.Apply", func() { out.stats = s.exec.Apply(plan) })
	out.migrate = readUsage().since(beforeApply, float64(out.stats.Moved))
	out.planned = len(plan.Moves)
	rebase := 0.0
	if rep.Mode == live.ModeFull {
		// As the controller does: only a full cut resets the baseline,
		// so drift builds up across warm cycles.
		rebase = timed("live.ScoreWindow", func() { s.det.SetBaseline(live.ScoreWindow(snap, liveK, s.locate)) })
		ph.full++
	} else {
		ph.warm++
	}
	if e.tr != nil {
		e.buf.end(root)
	}
	total := ms(time.Since(start))

	ph.record = append(ph.record, record)
	ph.snapshot = append(ph.snapshot, snapshot)
	ph.score = append(ph.score, score+rebase)
	ph.graph = append(ph.graph, ms(rep.PhaseGraph))
	ph.cut = append(ph.cut, ms(rep.PhaseCut))
	ph.relabel = append(ph.relabel, ms(rep.PhaseRelabel))
	ph.plan = append(ph.plan, planMS)
	ph.migrate = append(ph.migrate, migrate)
	ph.moved = append(ph.moved, float64(out.stats.Moved))
	ph.cycle = append(ph.cycle, total)
	// What the cycle took beyond its named phases: the repartitioner's
	// own time outside its three reported stages, and the loop's glue.
	named := record + snapshot + score + rebase + ms(rep.PhaseGraph+rep.PhaseCut+rep.PhaseRelabel) + planMS + migrate
	ph.dark = append(ph.dark, total-named)
	return out, nil
}

// checkPlacement asserts that after the last cycle every tuple sits on
// exactly the replica set its routing entry names.
func checkPlacement(e *env, s liveState) {
	wrong := 0
	for tn, table := range s.tables {
		holders := map[int64][]int{}
		for n := 0; n < s.c.NumNodes(); n++ {
			s.c.Node(n).DB().Table(tn).ScanAll(func(key int64, _ storage.Row) bool {
				holders[key] = append(holders[key], n)
				return true
			})
		}
		if src := s.w.DB.Table(tn); len(holders) != src.Len() {
			wrong += max(src.Len()-len(holders), len(holders)-src.Len())
		}
		for key, nodes := range holders {
			routed, ok := table.Locate(key)
			routed = slices.Clone(routed)
			slices.Sort(routed)
			if !ok || !slices.Equal(routed, nodes) {
				wrong++
			}
		}
	}
	e.check("tuples-on-routed-replicas", wrong == 0, "%d tuples lost, duplicated or not where their routing entry points", wrong)
}

// loaded repeats a few cycles with one client running TPC-C against the
// cluster, because Drain under traffic is what makes migration slow in
// the drift experiment. It is a diagnostic: the client's transactions are
// not the benchmark's, and reads that race a tuple copy may find no row
// (DESIGN.md documents the anomaly), so its failures are recorded in the
// result's sizes and do not fail the run.
func (s *liveState) loaded(e *env, from, cycles, perCycle int, tcfg workloads.TPCCConfig) error {
	stream := workloads.TPCCNewOrderPaymentStream(tcfg)(0, e.cfg.seed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ran, failed int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			op := stream.Next()
			if _, err := s.co.RunTxnStats(op.Run); err != nil {
				failed++
			}
			ran++
		}
	}()
	var ph livePhases
	var err error
	for n := from; n < from+cycles && err == nil; n++ {
		_, err = s.cycle(e, &ph, n, perCycle)
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	e.sizes["loaded_background_txns"] = ran
	e.sizes["loaded_background_failed"] = failed
	e.set("live.migrate_loaded_us_per_tuple", 1e3*ratio(sum(ph.migrate), sum(ph.moved)))
	return nil
}

package live

import (
	"fmt"
	"sync"
	"time"

	"schism/internal/obs"
	"schism/internal/partition"
	"schism/internal/workload"
)

// Config assembles the live control loop.
type Config struct {
	// K is the number of partitions (required).
	K int
	// Window configures the capture window.
	Window WindowConfig
	// Detector configures drift detection.
	Detector DetectorConfig
	// Repartition configures the incremental repartitioner (its K is
	// overwritten with Config.K).
	Repartition RepartitionConfig
	// CheckEvery re-scores the deployment every this many captured
	// transactions (default 512; background mode only — synchronous
	// callers decide when to Tick).
	CheckEvery int
	// Obs attaches an observability registry: per-cycle phase latency
	// histograms (graph build, cut, relabel, plan, migrate), a
	// capture-window depth gauge, and "migration" timeline events. Nil
	// disables instrumentation.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	c.Window = c.Window.withDefaults()
	c.Detector = c.Detector.withDefaults()
	if c.CheckEvery <= 0 {
		c.CheckEvery = 512
	}
	c.Repartition.K = c.K
	return c
}

// Adaptation records one completed repartition+migration cycle.
type Adaptation struct {
	// AtTxn is the capture counter when the cycle triggered.
	AtTxn uint64
	// Reason is the detector's trigger explanation.
	Reason string
	// Mode records whether the cycle ran the full multilevel cut or a
	// warm-start refinement, and Drift the detector's degradation ratio
	// that fed the policy.
	Mode  CycleMode
	Drift float64
	// Before and After score the deployment against the same window
	// snapshot, pre- and post-adaptation.
	Before, After Score
	// EdgeCut is the fresh partitioning's connectivity cost
	// (Repartition.EdgeCut).
	EdgeCut int64
	// Diff and NaiveDiff are the movement with and without relabeling.
	Diff, NaiveDiff partition.Diff
	// Migration reports the physical data movement (zero-valued in
	// logical, executor-less deployments).
	Migration MigrationStats
	// Elapsed is the full cycle time (snapshot → repartition → migrate).
	Elapsed time.Duration
	// Phases breaks Elapsed into the cycle's stages.
	Phases CyclePhases
}

// CyclePhases is the per-stage breakdown of one adaptation cycle.
type CyclePhases struct {
	Graph   time.Duration // workload-graph build over the window
	Cut     time.Duration // k-way min-cut
	Relabel time.Duration // movement-minimizing label permutation
	Plan    time.Duration // migration-plan construction
	Migrate time.Duration // plan application (physical or logical)
}

// Controller owns the capture window, detector, repartitioner and
// (optionally) migration executor, and exposes both a synchronous Tick and
// a background loop driven by the capture stream.
type Controller struct {
	cfg Config

	win *Window
	det *Detector
	rep *Repartitioner

	mu          sync.Mutex // serialises adaptation cycles and deployment state
	tables      map[string]*SyncTable
	exec        *Executor
	lastAdaptAt uint64
	adaptations []Adaptation
	lastErr     error // most recent background Tick failure

	// Background-loop plumbing. notify is created once at construction
	// and never reassigned, so Record may send on it without locking;
	// running/stop/done are guarded by mu.
	notify  chan struct{}
	running bool
	stop    chan struct{}
	done    chan struct{}
}

// NewController builds a controller over the deployed routing tables:
// tables maps table name → the SyncTable the deployed partition.Lookup
// routes through (the controller rewrites entries as it adapts). exec may
// be nil for logical deployments (no cluster): entries then flip without
// physical data movement. An invalid repartitioning configuration (K <= 0,
// bad graph options) returns the repartitioner's typed error.
func NewController(cfg Config, tables map[string]*SyncTable, exec *Executor) (*Controller, error) {
	cfg = cfg.withDefaults()
	rep, err := NewRepartitioner(cfg.Repartition)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:    cfg,
		win:    NewWindow(cfg.Window),
		det:    NewDetector(cfg.Detector),
		rep:    rep,
		tables: tables,
		exec:   exec,
		notify: make(chan struct{}, 1),
	}, nil
}

// Window exposes the capture window (for wiring and inspection).
func (c *Controller) Window() *Window { return c.win }

// Locate resolves a tuple's deployed replica set through the routing
// tables; nil when unknown (floating).
func (c *Controller) Locate(id workload.TupleID) []int {
	if t := c.tables[id.Table]; t != nil {
		if parts, ok := t.Locate(id.Key); ok {
			return parts
		}
	}
	return nil
}

// Record captures one committed transaction (cluster.CaptureFunc
// signature) and nudges the background loop (if running) every
// CheckEvery transactions.
func (c *Controller) Record(accs []workload.Access) {
	total := c.win.Record(accs)
	if total%uint64(c.cfg.CheckEvery) == 0 {
		select {
		case c.notify <- struct{}{}:
		default:
		}
	}
}

// Baseline returns the detector's current baseline score.
func (c *Controller) Baseline() (Score, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.det.Baseline()
}

// Adaptations returns the completed adaptation cycles.
func (c *Controller) Adaptations() []Adaptation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Adaptation(nil), c.adaptations...)
}

// Score evaluates the current deployment against the current window.
func (c *Controller) Score() Score {
	return ScoreWindow(c.win.Snapshot(), c.cfg.K, c.Locate)
}

// Tick runs one synchronous control-loop iteration: score the window,
// consult the detector, and — when drift is flagged — repartition,
// migrate, and rebaseline. It returns the adaptation performed, or nil
// when the deployment was left alone.
func (c *Controller) Tick() (*Adaptation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	total := c.win.Total()
	// Cool down after an adaptation until half a window of post-migration
	// traffic has been captured.
	if c.lastAdaptAt > 0 && total-c.lastAdaptAt < uint64(c.cfg.Window.Capacity/2) {
		return nil, nil
	}
	snap := c.win.Snapshot()
	score := ScoreWindow(snap, c.cfg.K, c.Locate)
	trigger, reason := c.det.Check(score)
	if !trigger {
		return nil, nil
	}
	drift := c.det.Drift(score)

	start := time.Now()
	rep, err := c.rep.RepartitionDrift(snap, c.Locate, drift)
	if err != nil {
		return nil, fmt.Errorf("live: repartition failed: %w", err)
	}

	ad := Adaptation{
		AtTxn:  total,
		Reason: reason,
		Mode:   rep.Mode, Drift: drift,
		Before: score, EdgeCut: rep.EdgeCut,
		Diff: rep.Diff, NaiveDiff: rep.NaiveDiff,
		Phases: CyclePhases{Graph: rep.PhaseGraph, Cut: rep.PhaseCut,
			Relabel: rep.PhaseRelabel},
	}
	phase := time.Now()
	// The repartitioning already resolved every windowed tuple through
	// c.Locate for its movement diff; plan from that instead of a second
	// full placement pass.
	plan := BuildPlanSets(rep.Tuples, rep.Deployed, rep.Assignments)
	ad.Phases.Plan = time.Since(phase)

	phase = time.Now()
	if c.exec != nil {
		ad.Migration = c.exec.Apply(plan)
	} else {
		// Logical deployment: flip every planned entry directly.
		for _, m := range plan.Moves {
			if t := c.tables[m.Table]; t != nil {
				t.Set(m.Key, m.To)
			}
		}
		ad.Migration.Moved = len(plan.Moves)
	}
	ad.Phases.Migrate = time.Since(phase)

	ad.After = ScoreWindow(snap, c.cfg.K, c.Locate)
	// Re-baseline only after a full cut: warm refinements keep the last
	// full cut's baseline, so gradual degradation across consecutive warm
	// cycles accumulates drift until DriftCutThreshold forces the escape.
	if rep.Mode == ModeFull {
		c.det.SetBaseline(ad.After)
	}
	c.lastAdaptAt = total
	ad.Elapsed = time.Since(start)
	c.adaptations = append(c.adaptations, ad)
	c.observe(&ad)
	return &ad, nil
}

// observe publishes one adaptation cycle to the registry: per-phase
// latency histograms, window-depth gauge, and a timeline event.
func (c *Controller) observe(ad *Adaptation) {
	reg := c.cfg.Obs
	if reg == nil {
		return
	}
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"live.phase.graph", ad.Phases.Graph},
		{"live.phase.cut", ad.Phases.Cut},
		{"live.phase.relabel", ad.Phases.Relabel},
		{"live.phase.plan", ad.Phases.Plan},
		{"live.phase.migrate", ad.Phases.Migrate},
		{"live.cycle", ad.Elapsed},
	} {
		reg.Hist(p.name).Record(p.d)
	}
	reg.Counter("live.adaptations").Inc()
	reg.Counter("live.cycle." + string(ad.Mode)).Inc()
	reg.Gauge("live.window.depth").Set(int64(c.win.Len()))
	reg.Timeline().Add("migration", -1, -1,
		fmt.Sprintf("mode=%s moved=%d reason=%s cycle=%s",
			ad.Mode, ad.Migration.Moved, ad.Reason, ad.Elapsed.Round(time.Microsecond)))
}

// Start launches the background control loop: every CheckEvery captured
// transactions the loop wakes and Ticks. Call Stop to drain it.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.running {
		c.mu.Unlock()
		return
	}
	c.running = true
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stop, c.done = stop, done
	c.mu.Unlock()
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-c.notify:
				if _, err := c.Tick(); err != nil {
					c.mu.Lock()
					c.lastErr = err
					c.mu.Unlock()
				}
			}
		}
	}()
}

// Err returns the most recent background-loop Tick failure, if any; a
// silent adaptations=0 outcome should be checked against it.
func (c *Controller) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

// Stop halts the background loop and waits for any in-flight adaptation to
// finish.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.running = false
	stop, done := c.stop, c.done
	c.mu.Unlock()
	close(stop)
	<-done
}

package live

import (
	"fmt"
	"time"

	"schism/internal/graph"
	"schism/internal/lookup"
	"schism/internal/metis"
	"schism/internal/partition"
	"schism/internal/workload"
)

// RepartitionConfig tunes the incremental repartitioner.
type RepartitionConfig struct {
	// K is the number of partitions (required, 1..lookup.MaxPartitions).
	K int
	// Graph configures workload-graph construction over the window.
	Graph graph.Options
	// Metis configures the partitioner.
	Metis metis.Options
	// WarmStart enables refine-only cycles: when a deployed placement
	// exists, project it onto the new window's hypergraph
	// (graph.ProjectLabels) and run boundary-restricted refinement
	// (metis.Solver.RefineHKway) instead of the full multilevel cut.
	// Steady-state cycles then skip coarsening entirely.
	WarmStart bool
	// FullCutEveryN forces a periodic full multilevel cut after every N-1
	// consecutive warm cycles, the backstop against refine-only runs
	// settling into a local minimum the full pipeline would escape. Zero
	// means the default (16); negative disables periodic full cuts.
	FullCutEveryN int
	// DriftCutThreshold escapes straight to a full cut when the caller's
	// drift measurement (Detector.Drift: degradation ratio vs the
	// post-deployment baseline, ~1 when healthy) reaches this value —
	// large workload shifts get the full pipeline immediately instead of
	// waiting out the periodic backstop. Zero means the default (3);
	// negative disables the escape hatch.
	DriftCutThreshold float64
}

// ConfigError reports an invalid RepartitionConfig field. Both
// constructors validate up front and return it typed, so a bad
// configuration (K = 0, say) fails loudly at wiring time instead of deep
// inside the solver mid-cycle.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("live: invalid RepartitionConfig.%s: %s", e.Field, e.Reason)
}

// Validate checks the configuration, returning a *ConfigError for the
// first problem found (or the graph options' own typed error), or nil.
func (c RepartitionConfig) Validate() error {
	if c.K <= 0 {
		return &ConfigError{Field: "K",
			Reason: fmt.Sprintf("%d partitions (must be >= 1)", c.K)}
	}
	if c.K > lookup.MaxPartitions {
		return &ConfigError{Field: "K",
			Reason: fmt.Sprintf("%d partitions (lookup.MaxPartitions is %d)", c.K, lookup.MaxPartitions)}
	}
	return c.Graph.Validate()
}

// withDefaults fills the warm-start policy defaults.
func (c RepartitionConfig) withDefaults() RepartitionConfig {
	if c.FullCutEveryN == 0 {
		c.FullCutEveryN = 16
	}
	if c.DriftCutThreshold == 0 {
		c.DriftCutThreshold = 3
	}
	return c
}

// CycleMode labels how a repartitioning cycle computed its cut.
type CycleMode string

const (
	// ModeFull is the full multilevel min-cut from scratch.
	ModeFull CycleMode = "full"
	// ModeWarm is the refine-only cycle seeded from the deployed placement.
	ModeWarm CycleMode = "warm"
)

// Repartition is the outcome of one incremental repartitioning run.
//
// Graph and Deployed live in arrays the Repartitioner reuses: they are
// valid until the next call on the same Repartitioner. Everything else —
// Tuples, Assignments, Perm and LocateFunc() — stays valid for good, so
// a caller may keep an old cycle's placement (chaining LocateFuncs, say)
// while later cycles run.
type Repartition struct {
	// Graph is the workload hypergraph built from the window (Graph.HG),
	// valid until the next call on the Repartitioner, which rebuilds it
	// in place.
	Graph *graph.Graph
	// EdgeCut is the cut's connectivity cost Σ w(e)·(λ(e)−1) in
	// graph.BuildHyper's net weights, where a transaction net weighs 64.
	EdgeCut int64
	// Mode records whether this cycle ran the full multilevel cut or a
	// warm-start refinement, and Drift echoes the drift measurement the
	// policy decided on.
	Mode  CycleMode
	Drift float64
	// Tuples and Assignments give the new placement: Assignments[i] is the
	// (relabeled) replica set of Tuples[i]. Tuples with equal sets share
	// one slice (graph.DenseAssignments), so treat the sets as read-only
	// and rename labels only through partition.RelabelAssignments.
	Tuples      []workload.TupleID
	Assignments [][]int
	// Perm is the applied new→old label permutation (identity when there
	// is no deployed placement to relabel against).
	Perm []int
	// Cycle is this run's index in the repartitioner's lifetime, and
	// SampleSeed the sampling seed derived from it: cycleSeed(base, Cycle).
	// Two repartitioners with equal configs produce byte-identical graphs
	// at equal cycle indices, at any GOMAXPROCS — but successive cycles
	// sample independently instead of replaying one sample forever.
	Cycle      uint64
	SampleSeed int64
	// Diff compares the deployed placement with the relabeled one — the
	// migration this run implies. NaiveDiff is the same comparison without
	// relabeling; the gap is the movement the relabeler saved.
	Diff      partition.Diff
	NaiveDiff partition.Diff
	// Deployed is the deployed replica set of each tuple (Deployed[i] for
	// Tuples[i]), as resolved through the caller's locate function while
	// computing Diff. Entries are nil for tuples the deployment does not
	// know; the whole slice is nil-entried when locate was nil. Callers
	// planning migration (BuildPlanSets) reuse it instead of paying a
	// second per-tuple placement lookup. The slice is valid until the
	// next call on the Repartitioner; the sets it holds are locate's.
	Deployed [][]int
	// PhaseGraph/PhaseCut/PhaseRelabel break the run down into its three
	// pipeline stages (graph build, min-cut, movement-minimizing
	// relabel).
	PhaseGraph   time.Duration
	PhaseCut     time.Duration
	PhaseRelabel time.Duration

	// in resolves Tuples to their dense ids: the window's interner, which
	// outlives the graph that was built over it.
	in *workload.Interner
}

// Repartitioner reruns the graph + min-cut pipeline over live windows. It
// holds one metis.Solver and the last cycle's graph, so steady-state
// repartitioning reuses all partitioner scratch and rebuilds each window's
// hypergraph in the previous one's arrays (see Repartition for what that
// means for a result's lifetime). Not safe for concurrent use; the
// Controller serialises calls.
type Repartitioner struct {
	cfg    RepartitionConfig
	solver *metis.Solver
	// g is the last cycle's hypergraph and deployed its Deployed array,
	// both rebuilt in place by the next cycle.
	g        *graph.Graph
	deployed [][]int
	cycle    uint64
	// sinceFull counts consecutive warm cycles since the last full cut,
	// driving the FullCutEveryN backstop.
	sinceFull int
}

// cycleSeed derives the deterministic per-cycle sampling seed from the
// configured base seed: a splitmix64-style mix, so every cycle draws an
// independent sample while a fixed base seed still reproduces the exact
// sequence of sampled graphs. Before this, every cycle reused the base
// seed verbatim and sampling-enabled configs re-sampled the same
// transactions forever, silently biasing live repartitioning.
func cycleSeed(base int64, cycle uint64) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(cycle+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// NewRepartitioner returns a repartitioner for the given configuration,
// or a typed *ConfigError when it is invalid.
func NewRepartitioner(cfg RepartitionConfig) (*Repartitioner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Repartitioner{cfg: cfg.withDefaults(), solver: metis.NewSolver(), g: new(graph.Graph)}, nil
}

// chooseMode implements the drift-gated warm-start policy. Warm cycles
// need the feature enabled and a deployed placement to project; a full
// cut is forced periodically (FullCutEveryN) and immediately when the
// measured drift reaches DriftCutThreshold.
func (r *Repartitioner) chooseMode(locate LocateFunc, drift float64) CycleMode {
	if !r.cfg.WarmStart || locate == nil {
		return ModeFull
	}
	if r.cfg.FullCutEveryN > 0 && r.sinceFull >= r.cfg.FullCutEveryN-1 {
		return ModeFull
	}
	if r.cfg.DriftCutThreshold > 0 && drift >= r.cfg.DriftCutThreshold {
		return ModeFull
	}
	return ModeWarm
}

// Repartition builds the workload hypergraph for a window snapshot, min-cut
// partitions it, and relabels the result against the deployed placement
// (locate; may be nil when there is none) so that the fewest tuples move.
// It always takes the full-cut path for drift purposes; callers with a
// drift measurement use RepartitionDrift.
func (r *Repartitioner) Repartition(tr *workload.Trace, locate LocateFunc) (*Repartition, error) {
	return r.RepartitionDrift(tr, locate, 0)
}

// RepartitionDrift is Repartition with the caller's drift measurement
// (Detector.Drift) feeding the warm-start policy: steady-state cycles
// refine the projected deployed placement in place of the full multilevel
// cut, and large drift or the periodic backstop escape back to it.
func (r *Repartitioner) RepartitionDrift(tr *workload.Trace, locate LocateFunc, drift float64) (*Repartition, error) {
	cycle := r.cycle
	r.cycle++
	gopts := r.cfg.Graph
	gopts.Seed = cycleSeed(gopts.Seed, cycle)

	phase := time.Now()
	g := r.g
	if err := g.RebuildHyper(tr, gopts); err != nil {
		return nil, err
	}
	graphDur := time.Since(phase)

	mode := r.chooseMode(locate, drift)
	phase = time.Now()
	var parts []int32
	var cut int64
	var err error
	if mode == ModeWarm {
		parts = g.ProjectLabels(r.cfg.K, locate)
		cut, err = r.solver.RefineHKway(g.HG, r.cfg.K, parts, r.cfg.Metis)
	} else {
		parts, cut, err = r.solver.PartHKway(g.HG, r.cfg.K, r.cfg.Metis)
	}
	if err != nil {
		return nil, err
	}
	if mode == ModeFull {
		r.sinceFull = 0
	} else {
		r.sinceFull++
	}
	cutDur := time.Since(phase)
	res := &Repartition{Graph: g, EdgeCut: cut, Mode: mode, Drift: drift,
		Tuples: g.Intern.Tuples(), Cycle: cycle, SampleSeed: gopts.Seed,
		PhaseGraph: graphDur, PhaseCut: cutDur, in: g.Intern}

	newSets := g.DenseAssignments(parts)
	n := len(res.Tuples)
	if cap(r.deployed) < n {
		r.deployed = make([][]int, n, n+n/4)
	}
	oldSets := r.deployed[:n]
	if locate != nil {
		for d, id := range res.Tuples {
			oldSets[d] = locate(id)
		}
	} else {
		clear(oldSets)
	}
	res.Deployed = oldSets
	res.NaiveDiff = partition.AssignmentDiff(oldSets, newSets, r.cfg.K)

	phase = time.Now()
	perm := identityPerm(r.cfg.K)
	if locate != nil {
		perm = partition.RelabelMap(oldSets, newSets, r.cfg.K)
	}
	if isIdentityPerm(perm) {
		// Nothing to rename: the relabeled diff is the naive diff, no
		// second assignment translation or diff pass needed.
		res.Diff = res.NaiveDiff
	} else {
		partition.RelabelAssignments(newSets, perm)
		res.Diff = partition.AssignmentDiff(oldSets, newSets, r.cfg.K)
	}
	res.PhaseRelabel = time.Since(phase)
	res.Perm = perm
	res.Assignments = newSets
	return res, nil
}

// LocateFunc exposes the repartitioning as a placement function: the
// relabeled replica set for tuples it covers, nil for anything else. It
// resolves through the window's interner, whose dense ids index
// Assignments, and not through Graph, so it keeps answering after later
// cycles have rebuilt the graph. The closure only reads, so it is safe
// for concurrent use. It returns Assignments' shared slices themselves:
// callers must not write to them (lookup tables copy what they are Set
// to).
func (r *Repartition) LocateFunc() LocateFunc {
	in, sets := r.in, r.Assignments
	return func(id workload.TupleID) []int {
		if d, ok := in.Lookup(id); ok {
			return sets[d]
		}
		return nil
	}
}

func identityPerm(k int) []int {
	perm := make([]int, k)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// isIdentityPerm reports whether the permutation renames nothing.
func isIdentityPerm(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}

// Package obs is the observability layer threaded through the cluster,
// replication, WAL, live-repartitioning and benchmark-driver packages: a
// registry of named counters, gauges and HDR histograms with atomic
// zero-allocation hot-path recording, and a bounded event timeline
// (crashes, elections, lease expiries, migration batches, chaos
// triggers). A transaction's phases are read from the histograms its
// sites record (2pc.route, 2pc.prepare, 2pc.commit, repl.append.quorum,
// repl.commit.apply, wal.force); a per-transaction statement record
// comes from cluster's Txn.SetStmtObserver hook.
//
// The design rule is "nil means off". Every producer holds plain
// pointers (*Counter, *Hist, *Registry) obtained once at construction;
// when no registry is configured the pointers are nil and each
// recording site costs a single predictable branch — no atomic loads,
// no time.Now calls, no allocation. cluster.Config.Obs,
// driver runs and live.Config.Obs all default to nil, so the
// instrumented stack benchmarks within noise of the uninstrumented one
// (the frozen 3-iteration BENCH_8.json snapshot; TestObsOverheadGuard in
// internal/experiments runs the comparison).
//
// Readers use Registry.Snapshot, which folds in registered collectors
// (the cluster contributes WAL bytes/forces/compactions, lock-manager
// wait/die counts and per-group replication lag at snapshot time rather
// than on the hot path) and marshals to JSON for the experiment dumps
// and the expvar/pprof endpoint (Serve).
package obs

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe on
// a nil receiver (no-ops), so disabled instrumentation costs one branch.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time level. Nil-safe like Counter.
type Gauge struct{ v atomic.Int64 }

// Set stores the current level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the level by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Collector contributes point-in-time metrics to a snapshot: it is
// called with a sink and sets gauge-like values by name. Subsystems
// whose counters already exist as cheap internal atomics (WAL force
// counts, lock-manager waits, replication indexes) register a collector
// instead of double-counting on the hot path.
type Collector func(set func(name string, v int64))

// Registry holds a run's metrics. The zero registry is not usable; use
// NewRegistry. A nil *Registry is the disabled mode: every method is
// nil-safe and returns nil handles, which are themselves nil-safe.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Hist
	collectors []Collector

	timeline *Timeline

	// firstCommit, when armed, makes the next qualifying MarkCommit
	// record a "first-commit" timeline event; firstGroup scopes the watch
	// to one group (-1 = any commit). Failover experiments arm it at the
	// crash instant to resolve crash → first-served-transaction time for
	// the group that lost its leader.
	firstCommit atomic.Bool
	firstGroup  atomic.Int64
}

// NewRegistry returns an empty registry with a 4096-event timeline.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
		timeline: NewTimeline(4096),
	}
	setCurrent(r)
	return r
}

// Counter returns (creating if needed) the named counter; nil when the
// registry is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil when the
// registry is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns (creating if needed) the named histogram; nil when the
// registry is nil. Callers must nil-check before Record (the histogram
// itself carries no disabled mode — its Record is the measured hot
// path).
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// AddCollector registers a snapshot-time metrics contributor.
func (r *Registry) AddCollector(fn Collector) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Timeline returns the registry's event timeline (nil when disabled).
func (r *Registry) Timeline() *Timeline {
	if r == nil {
		return nil
	}
	return r.timeline
}

// ArmFirstCommit makes the next qualifying MarkCommit record a
// "first-commit" timeline event. group scopes the watch: only a commit
// whose participant set includes that group resolves it (-1 accepts any
// commit). Used to resolve failover timelines: arm for the crashed
// group at the crash, and the event marks the first transaction the
// group serves again.
func (r *Registry) ArmFirstCommit(group int) {
	if r != nil {
		r.firstGroup.Store(int64(group))
		r.firstCommit.Store(true)
	}
}

// MarkCommit notes one committed transaction (touched is its
// participant set: group ids on a replicated cluster, node ids on a
// flat one; nil/empty means single-node) for the first-commit watch.
// Costs one atomic load when disarmed.
func (r *Registry) MarkCommit(touched []int) {
	if r == nil || !r.firstCommit.Load() {
		return
	}
	g := int(r.firstGroup.Load())
	if g >= 0 && !slices.Contains(touched, g) {
		return
	}
	if r.firstCommit.CompareAndSwap(true, false) {
		r.timeline.Add("first-commit", -1, g, "")
	}
}

// current is the most recently constructed registry; Serve exposes it
// so command-line flags can publish a run's metrics without threading
// the registry through every experiment entry point.
var current atomic.Pointer[Registry]

func setCurrent(r *Registry) { current.Store(r) }

// Current returns the most recently created registry (nil if none).
func Current() *Registry { return current.Load() }

package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Errors surfaced by fault injection and the RPC layer.
var (
	// ErrNodeDown is wrapped into every reply from a crashed (or still
	// recovering) node: the request was refused, not processed, so the
	// caller may safely retry once the node is back.
	ErrNodeDown = errors.New("cluster: node down")
	// ErrRPCTimeout means a node did not reply within Config.RPCTimeout.
	// Unlike ErrNodeDown the request MAY still execute later (e.g. the
	// node is paused and will drain its queue on Resume), so the
	// coordinator must treat the outcome as unknown, not as a clean
	// refusal.
	ErrRPCTimeout = errors.New("cluster: rpc timeout")
	// ErrDrainAborted means Drain gave up because a node was crashed or
	// paused: transactions queued there cannot finish, so the barrier
	// cannot be reached.
	ErrDrainAborted = errors.New("cluster: drain aborted")
	// ErrNotLeader: a replicated-group request landed on a replica that is
	// not the group's ready leader. The reply may carry a leader hint
	// (LeaderHintError); the coordinator redirects and retries.
	ErrNotLeader = errors.New("cluster: not group leader")
	// ErrLeaseExpired: a follower refused a local read because it has not
	// heard from a leader within the lease window, so its committed prefix
	// may be stale. Retryable against another replica.
	ErrLeaseExpired = errors.New("cluster: replica lease expired")
)

// LeaderHintError wraps ErrNotLeader with the refusing replica's best
// guess at the group's current leader, so the coordinator can redirect
// without a discovery round.
type LeaderHintError struct {
	Group  int
	Leader int // -1: unknown
}

func (e *LeaderHintError) Error() string {
	return fmt.Sprintf("cluster: not leader of group %d (hint: node %d)", e.Group, e.Leader)
}

// Unwrap makes errors.Is(err, ErrNotLeader) hold.
func (e *LeaderHintError) Unwrap() error { return ErrNotLeader }

// TriggerPoint names a deterministic instant in the transaction and
// migration lifecycle where a fault hook fires. The 2PC points bracket
// the protocol's durable steps, which is where a crash is interesting:
// before the vote is durable (lost vote — presumed abort), after the yes
// vote is acked (in-doubt transaction), and before the commit record is
// written (decided globally, not yet locally).
type TriggerPoint uint8

// Trigger points.
const (
	// BeforePrepareAck fires on a participant after a prepare request
	// arrives but before the vote is logged or acked.
	BeforePrepareAck TriggerPoint = iota
	// AfterPrepareAck fires on a participant after its yes vote is
	// durable and the ack has been sent.
	AfterPrepareAck
	// BeforeCommitAck fires on a participant after a commit request
	// arrives but before the commit record is logged or acked.
	BeforeCommitAck
	// DuringMigrationCopy fires on the coordinator for each target of a
	// live-migration (system transaction) statement, before it is sent.
	// The executor groups a batch's work, so it fires once per grouped
	// statement — a locked SELECT per source, a DELETE per node set, an
	// INSERT per copied row — not once per step of each tuple.
	DuringMigrationCopy

	numTriggerPoints = 4
)

func (p TriggerPoint) String() string {
	switch p {
	case BeforePrepareAck:
		return "before-prepare-ack"
	case AfterPrepareAck:
		return "after-prepare-ack"
	case BeforeCommitAck:
		return "before-commit-ack"
	case DuringMigrationCopy:
		return "during-migration-copy"
	}
	return "invalid"
}

// FaultHook observes a trigger point on a node. Hooks run synchronously
// on the worker (or coordinator) goroutine that hit the trigger, so a
// hook that calls Crash or Pause injects the fault at exactly that
// instant of the protocol.
type FaultHook func(point TriggerPoint, node int)

// hookSlot holds the cluster-wide fault hook. A nil pointer is the
// common case and costs one atomic load per trigger point.
type hookSlot struct {
	fn atomic.Pointer[FaultHook]
}

func (h *hookSlot) fire(p TriggerPoint, node int) {
	if fn := h.fn.Load(); fn != nil {
		(*fn)(p, node)
	}
}

// SetFaultHook installs (or, with nil, removes) the cluster-wide fault
// hook fired at every trigger point. Tests install hooks that crash or
// pause nodes at chosen protocol instants.
func (c *Cluster) SetFaultHook(h FaultHook) {
	if h == nil {
		c.hooks.fn.Store(nil)
		return
	}
	c.hooks.fn.Store(&h)
}

// Crash kills node i: its lock table, participant states and in-flight
// work are lost, and every request is refused with ErrNodeDown until
// Restart. The storage image and the WAL survive — but note that until
// recovery runs, the image may contain writes of transactions that will
// be rolled back. Crash of an already crashed (or recovering) node is a
// no-op. Blocked lock waiters on the node are failed immediately so its
// workers unwind without waiting out their timeouts.
func (c *Cluster) Crash(i int) {
	n := c.nodes[i]
	n.pmu.Lock()
	if n.down() {
		n.pmu.Unlock()
		return
	}
	n.status.Store(int32(statusCrashed))
	if n.pauseCh != nil {
		close(n.pauseCh) // a paused node can crash; wake parked workers
		n.pauseCh = nil
	}
	n.pmu.Unlock()
	// The consensus runtime dies with the process; its durable log (and
	// any waiting Propose/Wait callers) are released by Stop. Restart
	// builds a fresh replica around the surviving Durable.
	n.stopGroup()
	n.locks.Close()
	c.event("crash", i, c.GroupOf(i), "")
}

// Pause stalls node i, modelling a network partition or a long GC/IO
// stall: requests queue (and time out at the coordinator if RPCTimeout
// is set) but nothing is lost, and Resume lets the node drain its queue
// exactly where it left off. Pausing a node that is not running is a
// no-op.
func (c *Cluster) Pause(i int) {
	n := c.nodes[i]
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if n.getStatus() != statusRunning {
		return
	}
	n.status.Store(int32(statusPaused))
	n.pauseCh = make(chan struct{})
	c.event("pause", i, c.GroupOf(i), "")
}

// Resume wakes a paused node. No-op otherwise.
func (c *Cluster) Resume(i int) {
	n := c.nodes[i]
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if n.getStatus() != statusPaused {
		return
	}
	n.status.Store(int32(statusRunning))
	if n.pauseCh != nil {
		close(n.pauseCh)
		n.pauseCh = nil
	}
	c.event("resume", i, c.GroupOf(i), "")
}

// NodeRunning reports whether node i is serving requests.
func (c *Cluster) NodeRunning(i int) bool {
	return c.nodes[i].getStatus() == statusRunning
}

// allAvailable reports whether every partition can serve: a group with
// a running majority can still commit, so Drain need not fail fast just
// because a minority replica is down. Allocation-free — Drain polls it
// every 100 µs.
func (c *Cluster) allAvailable() bool {
	for g := range c.groups {
		if !c.partitionAvailable(g) {
			return false
		}
	}
	return true
}

// partitionAvailable reports whether partition p can currently serve
// requests: a majority of its group is running, which can elect a
// leader and commit (a group of one: its node is running).
func (c *Cluster) partitionAvailable(p int) bool {
	running := 0
	for _, m := range c.groups[p] {
		if c.nodes[m].getStatus() == statusRunning {
			running++
		}
	}
	return running > len(c.groups[p])/2
}

// Unavailable lists the nodes currently not serving requests (paused,
// crashed or recovering).
func (c *Cluster) Unavailable() []int {
	var out []int
	for i, n := range c.nodes {
		if n.getStatus() != statusRunning {
			out = append(out, i)
		}
	}
	return out
}

// LinkFault describes what happens to replication messages on one
// directed node pair. Zero value = healthy link.
type LinkFault struct {
	// Drop discards every message on the link.
	Drop bool
	// DropProb discards each message independently with this probability
	// (seeded by Config.ReplSeed, so schedules replay).
	DropProb float64
	// Delay adds fixed extra latency to each delivered message.
	Delay time.Duration
	// Reorder adds a random extra latency in [0, Delay] instead of a
	// fixed one, so consecutive messages overtake each other.
	Reorder bool
}

// SetLinkFault installs a fault on the directed link from -> to
// (replication RPCs only; client requests model the coordinator's own
// connectivity and are unaffected).
func (c *Cluster) SetLinkFault(from, to int, f LinkFault) {
	c.netMu.Lock()
	defer c.netMu.Unlock()
	if c.links == nil {
		c.links = make(map[[2]int]LinkFault)
	}
	c.links[[2]int{from, to}] = f
}

// PartitionNodes installs a symmetric network partition: messages
// between nodes in different sets are dropped, traffic within a set is
// untouched. Nodes absent from every set communicate freely with
// everyone. Heal with HealNetwork.
func (c *Cluster) PartitionNodes(sets ...[]int) {
	side := make(map[int]int)
	for i, s := range sets {
		for _, n := range s {
			side[n] = i + 1
		}
	}
	c.netMu.Lock()
	defer c.netMu.Unlock()
	if c.links == nil {
		c.links = make(map[[2]int]LinkFault)
	}
	for a := 0; a < len(c.nodes); a++ {
		for b := 0; b < len(c.nodes); b++ {
			if a == b || side[a] == 0 || side[b] == 0 || side[a] == side[b] {
				continue
			}
			c.links[[2]int{a, b}] = LinkFault{Drop: true}
		}
	}
}

// IsolateNode cuts node i off from every peer in both directions — the
// classic "leader behind a partition" scenario. Heal with HealNetwork.
func (c *Cluster) IsolateNode(i int) {
	c.netMu.Lock()
	defer c.netMu.Unlock()
	if c.links == nil {
		c.links = make(map[[2]int]LinkFault)
	}
	for p := range c.nodes {
		if p == i {
			continue
		}
		c.links[[2]int{i, p}] = LinkFault{Drop: true}
		c.links[[2]int{p, i}] = LinkFault{Drop: true}
	}
}

// HealNetwork removes every link fault.
func (c *Cluster) HealNetwork() {
	c.netMu.Lock()
	defer c.netMu.Unlock()
	c.links = nil
}

// linkFault answers the replication transport's per-message question:
// is this directed message dropped, and how much extra latency does it
// incur. Probabilistic drops use the cluster's seeded fault rng.
func (c *Cluster) linkFault(from, to int) (drop bool, delay time.Duration) {
	c.netMu.Lock()
	defer c.netMu.Unlock()
	f, ok := c.links[[2]int{from, to}]
	if !ok {
		return false, 0
	}
	if f.Drop {
		return true, 0
	}
	if f.DropProb > 0 && c.netRng.Float64() < f.DropProb {
		return true, 0
	}
	delay = f.Delay
	if f.Reorder && delay > 0 {
		delay = time.Duration(c.netRng.Int63n(int64(delay) + 1))
	}
	return false, delay
}

// Fault is one entry of a FaultPlan schedule: when the trigger point
// fires on the node for the After-th time, inject the fault.
type Fault struct {
	Point TriggerPoint
	Node  int
	// After is the 1-based occurrence of (Point, Node) that fires the
	// fault (0 means the first occurrence).
	After int
	// Pause injects a pause instead of a crash.
	Pause bool
	// Isolate injects a network isolation (IsolateNode) instead of a
	// crash: the node keeps running but no replication message reaches
	// it or leaves it. RestartAfter heals the whole network.
	Isolate bool
	// RestartAfter schedules an automatic Restart (or Resume, for
	// pauses; HealNetwork, for isolations) this long after the fault
	// fires; zero leaves the node down until the test restarts it.
	RestartAfter time.Duration
}

// FaultStats summarises what a FaultPlan actually injected.
type FaultStats struct {
	Crashes    int
	Pauses     int
	Isolations int
	Restarts   int
	Resumes    int
	Heals      int
	// Recovery aggregates the RecoveryStats of every automatic restart.
	Recovery RecoveryStats
}

// FaultPlan installs a deterministic fault schedule on a coordinator's
// cluster: each Fault fires at an exact protocol instant (trigger point
// x node x occurrence), so a seeded schedule replays identically. Close
// uninstalls the hook and waits for scheduled restarts to finish.
type FaultPlan struct {
	co *Coordinator

	mu      sync.Mutex
	pending []Fault
	counts  map[[2]int]int
	stats   FaultStats
	errs    []error

	wg sync.WaitGroup
}

// NewFaultPlan installs the schedule. Only one fault hook can be
// installed at a time; the plan owns the slot until Close.
func NewFaultPlan(co *Coordinator, faults ...Fault) *FaultPlan {
	p := &FaultPlan{co: co, pending: append([]Fault(nil), faults...), counts: make(map[[2]int]int)}
	co.c.SetFaultHook(p.hook)
	return p
}

func (p *FaultPlan) hook(point TriggerPoint, node int) {
	p.mu.Lock()
	k := [2]int{int(point), node}
	p.counts[k]++
	occ := p.counts[k]
	i := slices.IndexFunc(p.pending, func(f Fault) bool {
		return f.Point == point && f.Node == node && max(f.After, 1) == occ
	})
	if i < 0 {
		p.mu.Unlock()
		return
	}
	// Copy the fault out before deleting it: the deletion shifts the next
	// pending fault into its slot.
	f := p.pending[i]
	p.pending = slices.Delete(p.pending, i, i+1)
	switch {
	case f.Pause:
		p.stats.Pauses++
	case f.Isolate:
		p.stats.Isolations++
	default:
		p.stats.Crashes++
	}
	p.mu.Unlock()
	p.co.c.event("chaos", f.Node, p.co.c.GroupOf(f.Node), point.String())

	switch {
	case f.Pause:
		p.co.c.Pause(f.Node)
	case f.Isolate:
		p.co.c.IsolateNode(f.Node)
	default:
		p.co.c.Crash(f.Node)
	}
	if f.RestartAfter <= 0 {
		return
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		time.Sleep(f.RestartAfter)
		if f.Pause {
			p.co.c.Resume(f.Node)
			p.mu.Lock()
			p.stats.Resumes++
			p.mu.Unlock()
			return
		}
		if f.Isolate {
			p.co.c.HealNetwork()
			p.mu.Lock()
			p.stats.Heals++
			p.mu.Unlock()
			return
		}
		rs, err := p.co.RestartNode(f.Node)
		p.mu.Lock()
		if err != nil {
			// A second crash fault on the same node while the first restart
			// was pending collapses into one crash; its extra restart is
			// benign, not an error.
			if !errors.Is(err, ErrNotCrashed) {
				p.errs = append(p.errs, err)
			}
		} else {
			p.stats.Restarts++
			p.stats.Recovery.add(rs)
		}
		p.mu.Unlock()
	}()
}

// Wait blocks until every scheduled automatic restart/resume has run.
func (p *FaultPlan) Wait() { p.wg.Wait() }

// Close uninstalls the hook and waits for scheduled restarts.
func (p *FaultPlan) Close() {
	p.co.c.SetFaultHook(nil)
	p.Wait()
}

// Stats returns what the plan injected so far.
func (p *FaultPlan) Stats() FaultStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Pending returns the faults whose trigger occurrence never fired.
func (p *FaultPlan) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.pending)
}

// Errs returns errors from scheduled restarts (e.g. a restart racing a
// manual one).
func (p *FaultPlan) Errs() []error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]error(nil), p.errs...)
}

// RandomFaults builds a seeded random crash schedule: count crashes
// spread over the three 2PC trigger points and all node IDs in [0,
// nodes), each firing within the first maxOccurrence occurrences of its
// trigger and auto-restarting after a random delay in [restartMin,
// restartMax]. The same seed yields the same schedule.
func RandomFaults(seed int64, count, nodes, maxOccurrence int, restartMin, restartMax time.Duration) []Fault {
	rng := rand.New(rand.NewSource(seed))
	points := []TriggerPoint{BeforePrepareAck, AfterPrepareAck, BeforeCommitAck}
	out := make([]Fault, count)
	for i := range out {
		spread := int64(restartMax - restartMin)
		delay := restartMin
		if spread > 0 {
			delay += time.Duration(rng.Int63n(spread))
		}
		out[i] = Fault{
			Point:        points[rng.Intn(len(points))],
			Node:         rng.Intn(nodes),
			After:        1 + rng.Intn(maxOccurrence),
			RestartAfter: delay,
		}
	}
	return out
}

// String aids debugging of schedules.
func (f Fault) String() string {
	kind := "crash"
	switch {
	case f.Pause:
		kind = "pause"
	case f.Isolate:
		kind = "isolate"
	}
	return fmt.Sprintf("%s node %d at %v#%d (restart after %v)", kind, f.Node, f.Point, f.After, f.RestartAfter)
}

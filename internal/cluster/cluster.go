// Package cluster simulates a shared-nothing distributed OLTP database:
// N nodes, each with its own storage engine, row lock manager and executor
// workers, connected by a simulated network with per-message latency. A
// coordinator executes transactions through a partition-aware router, using
// two-phase commit when a transaction spans nodes.
//
// The simulator reproduces the two phenomena behind the paper's numbers:
// distributed transactions cost extra messages and roughly double the
// aggregate per-transaction work (Fig. 1), and lock contention on hot rows
// bounds throughput when a partition hosts too few warehouses (Fig. 6).
// Both emerge from real locking and real message counting.
//
// Deploy is the way to stand a workload up: it loads every node with
// exactly the rows the deployed strategy places on its group, so the
// data and the router agree by construction. Logical reads a drained
// cluster back as one copy of each row and fails when two copies differ,
// the one-copy equivalence partial replication must keep.
//
// Nodes can fail. Each node owns a write-ahead log (package wal) that
// records before-images, prepare votes with their write-sets, and
// commit/abort decisions; Crash discards a node's volatile state and
// Restart reconstructs it by WAL replay — losers undone from their
// before-images, prepared-but-undecided transactions re-installed as
// in-doubt and resolved by the 2PC termination protocol against the
// coordinator's decision record (presumed abort: no record means
// abort). FaultPlan injects crashes and pauses at deterministic
// protocol instants (TriggerPoint), so seeded fault schedules replay
// identically; chaos_test.go asserts the package's invariants — money
// conserved, no half-committed transaction, Drain terminates — under
// those schedules. See DESIGN.md, "Fault model and recovery".
package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"schism/internal/cluster/repl"
	"schism/internal/obs"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/txn"
	"schism/internal/workload"
)

// Config describes the simulated cluster.
type Config struct {
	// Nodes is the number of shared-nothing partitions/servers.
	Nodes int
	// WorkersPerNode models each server's CPU parallelism: the number of
	// requests a node processes concurrently. Default 8.
	WorkersPerNode int
	// NetworkDelay is the one-way message latency. Zero is allowed (tests).
	NetworkDelay time.Duration
	// ServiceTime is the CPU time a node spends per request (parse +
	// execute + bookkeeping). It occupies a worker, bounding node
	// throughput at WorkersPerNode/ServiceTime. Zero is allowed.
	ServiceTime time.Duration
	// LockTimeout bounds lock waits (default 5s).
	LockTimeout time.Duration
	// LogForce is the synchronous commit-log flush latency a node pays
	// before acknowledging a prepare or a commit (§3 attributes the
	// distributed-transaction penalty to "the additional network messages
	// and log writes" of 2PC: a single-node transaction forces the log
	// once, a distributed one forces it twice per participant, both on
	// the client-visible latency path). It holds the executing worker for
	// the flush, like a synchronous fsync holds a backend thread, but
	// sleeps rather than spins (IO wait, not CPU). Zero (the default)
	// disables it.
	LogForce time.Duration
	// RPCTimeout bounds the coordinator's wait for any single 2PC
	// protocol reply (prepare/commit/abort; statement execution is
	// exempt, since lock waits legitimately run to LockTimeout). Zero
	// (the default) disables the bound — correct for a fault-free
	// cluster, where every node eventually answers. Fault-injection
	// tests set it so a paused node surfaces as ErrRPCTimeout instead of
	// wedging the commit path.
	RPCTimeout time.Duration

	// ReplicationFactor groups consecutive nodes into consensus
	// replication groups of this size: nodes [g*R, (g+1)*R) form group g,
	// each group running one replicated log with leader failover (see
	// package repl and DESIGN.md, "Replication and failover"). Partitions
	// are then group-granular: a strategy's NumPartitions must equal
	// Nodes/R, and R must divide Nodes. 0 or 1 disables replication:
	// every node is a group of one, which it leads, with no consensus log.
	ReplicationFactor int
	// ReplHeartbeat / ReplElection / ReplCompactEntries tune the group
	// consensus protocol (zero: repl package defaults). Tests shrink them
	// for fast failover.
	ReplHeartbeat      time.Duration
	ReplElection       time.Duration
	ReplCompactEntries int
	// ReplSeed seeds election jitter and probabilistic link faults, so a
	// seeded chaos schedule replays identically.
	ReplSeed int64

	// Obs attaches an observability registry: commit/abort/retry
	// counters, 2PC and replication phase histograms, the fault/election
	// event timeline, and a snapshot-time collector over WAL, lock and
	// replication state. Nil (the default) disables all instrumentation;
	// the hot path then pays one nil check per site (see package obs).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.WorkersPerNode <= 0 {
		c.WorkersPerNode = 8
	}
	if c.LockTimeout <= 0 {
		c.LockTimeout = 5 * time.Second
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	return c
}

// Cluster is a running simulated database cluster.
type Cluster struct {
	cfg   Config
	nodes []*Node
	clock txn.Clock
	hooks hookSlot

	// groups lists each group's member nodes (one member when R = 1);
	// leaderCache is the cluster's best guess at each group's leader,
	// updated by LeaderReady callbacks and coordinator redirect hints.
	// durables is each node's crash-surviving consensus log (its "disk"),
	// nil when R = 1.
	groups      [][]int
	leaderCache []atomic.Int32
	durables    []*repl.Durable

	// Link-fault table for the replication transport (fault.go).
	netMu  sync.Mutex
	links  map[[2]int]LinkFault
	netRng *rand.Rand

	// decider answers the termination protocol for group leaders
	// resolving in-doubt entries (ts, group) -> Decision. NewCoordinator
	// installs its decision record here.
	decider atomic.Pointer[func(txn.TS, int) Decision]

	// obs is Config.Obs (nil when observability is off); timeline is its
	// event ring, cached so event sites pay one nil check.
	obs      *obs.Registry
	timeline *obs.Timeline

	mu     sync.Mutex
	closed bool
}

// New starts a cluster; builddb is called once per node to populate that
// node's local database (partition-local rows plus replicated tables).
// Deploy is the way to stand a workload up; New stays for callers that
// load nodes by hand, such as tests planting stray rows on purpose.
func New(cfg Config, builddb func(node int) *storage.Database) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Nodes <= 0 {
		panic("cluster: Nodes must be positive")
	}
	if cfg.Nodes%cfg.ReplicationFactor != 0 {
		panic(fmt.Sprintf("cluster: ReplicationFactor %d does not divide Nodes %d",
			cfg.ReplicationFactor, cfg.Nodes))
	}
	c := &Cluster{
		cfg:      cfg,
		netRng:   rand.New(rand.NewSource(cfg.ReplSeed + 1)),
		obs:      cfg.Obs,
		timeline: cfg.Obs.Timeline(),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, newNode(i, cfg, builddb(i), &c.hooks))
	}
	r, ids := cfg.ReplicationFactor, allNodes(cfg.Nodes)
	c.groups = make([][]int, c.NumGroups())
	c.leaderCache = make([]atomic.Int32, c.NumGroups())
	for g := range c.groups {
		c.groups[g] = ids[g*r : (g+1)*r : (g+1)*r]
		c.leaderCache[g].Store(int32(g * r))
	}
	if c.replicated() {
		c.durables = make([]*repl.Durable, cfg.Nodes)
		for i := range c.durables {
			c.durables[i] = repl.NewDurable()
		}
		for i, n := range c.nodes {
			n.startGroup(c, c.durables[i])
		}
	}
	c.obs.AddCollector(c.collect)
	return c
}

// collect contributes the cluster's subsystem gauges to a registry
// snapshot: WAL totals, lock-manager contention, replication counters
// and per-group replication lag. Polled at snapshot time only, so the
// underlying subsystems carry no obs dependency and no extra hot-path
// cost.
func (c *Cluster) collect(set func(name string, v int64)) {
	var walBytes, walForces, walCompacts int64
	var lockWaits, lockDies, lockTimeouts int64
	for _, n := range c.nodes {
		walBytes += n.wal.BytesAppended()
		walForces += n.wal.Forces()
		walCompacts += n.wal.Compactions()
		st := n.locks.Stats()
		lockWaits += st.Waits
		lockDies += st.Dies
		lockTimeouts += st.Timeouts
	}
	set("wal.bytes", walBytes)
	set("wal.forces", walForces)
	set("wal.compactions", walCompacts)
	set("lock.waits", lockWaits)
	set("lock.dies", lockDies)
	set("lock.timeouts", lockTimeouts)
	if !c.replicated() {
		return
	}
	var elections, wins, renewals, lagMax, lagSum int64
	for g := 0; g < c.NumGroups(); g++ {
		var leaderLast uint64
		members := c.GroupMembers(g)
		sts := make([]repl.Status, 0, len(members))
		for _, m := range members {
			st, ok := c.nodes[m].groupStatus()
			if !ok {
				continue
			}
			sts = append(sts, st)
			elections += int64(st.Elections)
			wins += int64(st.LeaderWins)
			renewals += int64(st.LeaseRenewals)
			if st.Role == repl.Leader && st.LastIndex > leaderLast {
				leaderLast = st.LastIndex
			}
		}
		for _, st := range sts {
			if st.Role == repl.Leader || leaderLast <= st.Applied {
				continue
			}
			lag := int64(leaderLast - st.Applied)
			lagSum += lag
			if lag > lagMax {
				lagMax = lag
			}
		}
	}
	set("repl.elections", elections)
	set("repl.leader_wins", wins)
	set("repl.lease_renewals", renewals)
	set("repl.lag.max", lagMax)
	set("repl.lag.sum", lagSum)
}

// event records a timeline event (no-op when observability is off).
func (c *Cluster) event(kind string, node, group int, detail string) {
	c.timeline.Add(kind, node, group, detail)
}

// NumNodes returns the number of nodes.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// ReplicationFactor returns the group size R (1 when replication is off).
func (c *Cluster) ReplicationFactor() int { return c.cfg.ReplicationFactor }

// replicated reports whether partitions are consensus groups.
func (c *Cluster) replicated() bool { return c.cfg.ReplicationFactor > 1 }

// NumGroups returns the number of replication groups — the partition
// count strategies must match. With replication off it equals NumNodes.
func (c *Cluster) NumGroups() int { return len(c.nodes) / c.cfg.ReplicationFactor }

// GroupOf returns the replication group node i belongs to.
func (c *Cluster) GroupOf(node int) int { return node / c.cfg.ReplicationFactor }

// GroupMembers returns the node ids of group g. The slice is the
// cluster's own; callers must not modify it.
func (c *Cluster) GroupMembers(g int) []int { return c.groups[g] }

// GroupLeader returns the cluster's best guess at group g's current
// leader node (a group of one: its node).
func (c *Cluster) GroupLeader(g int) int { return int(c.leaderCache[g].Load()) }

func (c *Cluster) noteLeader(g, node int) {
	if node >= 0 {
		c.leaderCache[g].Store(int32(node))
	}
}

// Node returns node i (tests and data loaders use this for direct access).
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NodeOps snapshots every node's executed-statement counter. The
// benchmark driver diffs two snapshots to compute per-node load and
// imbalance over a measurement window.
func (c *Cluster) NodeOps() []int64 {
	out := make([]int64, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.Ops()
	}
	return out
}

// Close shuts down every node's workers.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, n := range c.nodes {
		n.stopGroup()
	}
	for _, n := range c.nodes {
		n.close()
	}
}

// settleTimeout bounds Deploy's wait for every group to elect a leader
// and Logical's wait for every follower to apply its leader's log.
const settleTimeout = 10 * time.Second

// Deploy stands a workload up: it starts cfg.Nodes nodes, loads node n
// with SplitDatabase(db, strat, n/R), waits for every group's leader when
// R > 1, and returns the cluster with a coordinator routing through
// strat. Unless strat has one partition per group (Nodes/R), it starts
// nothing and returns an error.
func Deploy(cfg Config, db *storage.Database, strat partition.Strategy) (*Cluster, *Coordinator, error) {
	r := max(cfg.ReplicationFactor, 1)
	if k := strat.NumPartitions(); k <= 0 || k*r != cfg.Nodes {
		return nil, nil, fmt.Errorf("cluster: strategy %s has %d partitions; %d nodes in groups of %d need %d",
			strat.Name(), k, cfg.Nodes, r, cfg.Nodes/r)
	}
	c := New(cfg, func(node int) *storage.Database { return SplitDatabase(db, strat, node/r) })
	if !c.WaitForLeaders(settleTimeout) {
		c.Close()
		return nil, nil, fmt.Errorf("cluster: no leader elected in every group within %v", settleTimeout)
	}
	return c, NewCoordinator(c, strat), nil
}

// SplitDatabase materialises one node's shard of a single-node database
// image: every tuple the strategy places (or replicates) on that node.
// Deploy loads every node through it, so clusters are populated by
// exactly the placement the router will consult.
func SplitDatabase(src *storage.Database, strat partition.Strategy, node int) *storage.Database {
	db := storage.NewDatabase()
	for _, tn := range src.TableNames() {
		st := src.Table(tn)
		schema := *st.Schema
		tbl := db.MustCreateTable(&schema)
		st.ViewAll(func(key int64, row storage.Row) bool {
			id := workload.TupleID{Table: tn, Key: key}
			if slices.Contains(strat.Locate(id, storage.RowView{Schema: st.Schema, Data: row}), node) {
				if err := tbl.Insert(row); err != nil {
					panic(err)
				}
			}
			return true
		})
	}
	return db
}

// waitNet blocks until a message sent at sentAt has crossed the wire.
func waitNet(sentAt time.Time, delay time.Duration) {
	if delay <= 0 {
		return
	}
	if d := time.Until(sentAt.Add(delay)); d > 0 {
		time.Sleep(d)
	}
}

// spinWait burns CPU for the given duration, modelling per-message service
// cost as genuine processor occupancy.
func spinWait(d time.Duration) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
	}
}

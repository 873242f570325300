package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"schism/internal/datum"
	"schism/internal/obs"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/txn"
	"schism/internal/workload"
)

// CaptureFunc receives the ground-truth access set of one committed
// transaction (every tuple its statements matched, with write flags, as
// reported by the executing nodes). The slice is reused by the caller and
// only valid for the duration of the call; sinks must not retain it.
type CaptureFunc func(accs []workload.Access)

// Coordinator is the middleware layer of §5.4 / App. C.2: it parses SQL,
// consults the partitioning strategy to find destination partitions, and
// coordinates two-phase commit for transactions spanning nodes.
type Coordinator struct {
	c *Cluster

	mu       sync.RWMutex
	strategy partition.Strategy
	capture  CaptureFunc

	actMu  sync.Mutex
	active map[txn.TS]struct{}

	// commits is the coordinator's durable decision record: a transaction
	// appears here, with its participant set, from the instant the commit
	// decision is taken (after all yes votes, before the commit fan-out)
	// until every participant has acked its commit. The 2PC termination
	// protocol (Decision) reads it when a recovering participant resolves
	// an in-doubt transaction.
	decMu   sync.Mutex
	commits map[txn.TS][]int

	// mets is the coordinator's instrumentation handle set, nil when the
	// cluster has no observability registry. Every use is guarded by one
	// nil check, keeping the disabled hot path free of clock reads.
	mets *coordMetrics
}

// coordMetrics resolves the coordinator's metric handles once, so the
// per-transaction path never takes the registry lock.
type coordMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	committed   *obs.Counter
	distributed *obs.Counter
	failed      *obs.Counter
	onePhase    *obs.Counter
	twoPhase    *obs.Counter
	retries     map[string]*obs.Counter // keyed by RetryCause
	backoffNS   *obs.Counter

	route   *obs.Hist // per-statement fan-out latency
	prepare *obs.Hist // 2PC prepare round (vote collection)
	commit  *obs.Hist // 2PC commit delivery (first round to last ack)
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	if reg == nil {
		return nil
	}
	m := &coordMetrics{
		reg:         reg,
		tracer:      reg.Tracer(),
		committed:   reg.Counter("txn.committed"),
		distributed: reg.Counter("txn.distributed"),
		failed:      reg.Counter("txn.failed"),
		onePhase:    reg.Counter("txn.commit.one_phase"),
		twoPhase:    reg.Counter("txn.commit.two_phase"),
		backoffNS:   reg.Counter("txn.backoff_ns"),
		retries:     make(map[string]*obs.Counter),
		route:       reg.Hist("2pc.route"),
		prepare:     reg.Hist("2pc.prepare"),
		commit:      reg.Hist("2pc.commit"),
	}
	for _, cause := range RetryCauses {
		m.retries[cause] = reg.Counter("txn.retry." + cause)
	}
	return m
}

// retry counts one retried abort under its classified cause.
func (m *coordMetrics) retry(cause string) {
	if c := m.retries[cause]; c != nil {
		c.Inc()
		return
	}
	m.retries["other"].Inc()
}

// NewCoordinator attaches a router with the given strategy to the cluster.
// The strategy's NumPartitions must equal the cluster's partition count —
// the number of replication groups (== nodes when replication is off).
func NewCoordinator(c *Cluster, strategy partition.Strategy) *Coordinator {
	if strategy.NumPartitions() != c.NumGroups() {
		panic(fmt.Sprintf("cluster: strategy has %d partitions, cluster %d groups",
			strategy.NumPartitions(), c.NumGroups()))
	}
	co := &Coordinator{
		c: c, strategy: strategy,
		active:  make(map[txn.TS]struct{}),
		commits: make(map[txn.TS][]int),
		mets:    newCoordMetrics(c.obs),
	}
	// Group leaders resolving in-doubt entries (failover inheritance) ask
	// this coordinator's decision record through the cluster.
	fn := func(ts txn.TS, group int) Decision { return co.Decision(ts, group) }
	c.decider.Store(&fn)
	return co
}

func (co *Coordinator) recordCommit(ts txn.TS, nodes []int) {
	co.decMu.Lock()
	co.commits[ts] = nodes
	co.decMu.Unlock()
}

func (co *Coordinator) forgetCommit(ts txn.TS) {
	co.decMu.Lock()
	delete(co.commits, ts)
	co.decMu.Unlock()
}

// Decision answers the 2PC termination protocol for a recovering
// participant: Commit if a commit decision naming that node is on
// record, Pending while the transaction is still in flight (the
// coordinator may yet decide either way), and otherwise Abort —
// presumed abort: the coordinator records every commit decision before
// acting on it, so no record and no activity means the transaction did
// not and will not commit.
//
// The recorded participant set matters because wait-die retries reuse
// the timestamp: a commit record whose participants do not include the
// asking node belongs to a later attempt of the transaction, so the
// node's in-doubt state is from an earlier, aborted attempt and must
// roll back.
func (co *Coordinator) Decision(ts txn.TS, node int) Decision {
	co.decMu.Lock()
	participants, committed := co.commits[ts]
	co.decMu.Unlock()
	if committed {
		for _, p := range participants {
			if p == node {
				return DecisionCommit
			}
		}
		return DecisionAbort
	}
	co.actMu.Lock()
	_, live := co.active[ts]
	co.actMu.Unlock()
	if live {
		return DecisionPending
	}
	return DecisionAbort
}

// register/deregister maintain the active-transaction set Drain waits on.
// A transaction is active from Begin (or retry reset) until it commits or
// aborts; wait-die retries therefore leave and re-enter the set.
func (co *Coordinator) register(ts txn.TS) {
	co.actMu.Lock()
	co.active[ts] = struct{}{}
	co.actMu.Unlock()
}

func (co *Coordinator) deregister(ts txn.TS) {
	co.actMu.Lock()
	delete(co.active, ts)
	co.actMu.Unlock()
}

// Drain blocks until every transaction active at the time of the call has
// committed or aborted. Transactions begun afterwards are not waited for.
// The live migration executor uses this as an epoch barrier: after a
// routing-entry flip plus a Drain, no in-flight transaction can still be
// operating on the pre-flip route.
//
// A handle abandoned without Commit or Abort would wedge the barrier, so
// the wait per transaction is bounded: past ~2x the lock timeout the
// transaction cannot be holding any lock wait and is treated as leaked —
// it is evicted from the active set and skipped.
//
// Drain fails fast (instead of blocking toward the leak deadline) when
// any node is crashed or paused: transactions queued on an unavailable
// node cannot finish until it returns, so waiting is pointless and — for
// the migration executor's epoch barrier — misleading. The check repeats
// each poll so a node failing mid-drain also aborts the wait.
func (co *Coordinator) Drain() error {
	if !co.c.allAvailable() {
		return fmt.Errorf("%w: nodes %v unavailable", ErrDrainAborted, co.c.Unavailable())
	}
	co.actMu.Lock()
	snap := make([]txn.TS, 0, len(co.active))
	for ts := range co.active {
		snap = append(snap, ts)
	}
	co.actMu.Unlock()
	deadline := time.Now().Add(2 * co.c.cfg.LockTimeout)
	for _, ts := range snap {
		for {
			co.actMu.Lock()
			_, live := co.active[ts]
			co.actMu.Unlock()
			if !live {
				break
			}
			if !co.c.allAvailable() {
				return fmt.Errorf("%w: nodes %v unavailable", ErrDrainAborted, co.c.Unavailable())
			}
			if time.Now().After(deadline) {
				co.deregister(ts)
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// Cluster returns the cluster this coordinator drives (the benchmark
// driver snapshots per-node load counters through it).
func (co *Coordinator) Cluster() *Cluster { return co.c }

// Strategy returns the currently deployed routing strategy.
func (co *Coordinator) Strategy() partition.Strategy {
	co.mu.RLock()
	defer co.mu.RUnlock()
	return co.strategy
}

// SetStrategy swaps the routing strategy. In-flight transactions keep the
// strategy they started with; retries pick up the new one.
func (co *Coordinator) SetStrategy(s partition.Strategy) {
	if s.NumPartitions() != co.c.NumGroups() {
		panic(fmt.Sprintf("cluster: strategy has %d partitions, cluster %d groups",
			s.NumPartitions(), co.c.NumGroups()))
	}
	co.mu.Lock()
	co.strategy = s
	co.mu.Unlock()
}

// SetCapture installs (or, with nil, removes) the workload-capture hook:
// after every successful commit the transaction's observed read/write set
// is passed to fn. Transactions begun while no hook is installed incur no
// capture overhead.
func (co *Coordinator) SetCapture(fn CaptureFunc) {
	co.mu.Lock()
	co.capture = fn
	co.mu.Unlock()
}

// StmtObserver receives one measurement per successfully executed
// statement: the table it targeted, whether it was a write, how many
// nodes it touched (nodes > 1 means the statement itself was
// distributed), and its wall-clock latency including fan-out, queueing
// and simulated network time. The benchmark driver installs one to build
// per-statement latency histograms.
type StmtObserver func(table string, write bool, nodes int, d time.Duration)

// Txn is a client transaction handle. Not safe for concurrent use.
type Txn struct {
	co       *Coordinator
	ts       txn.TS
	epoch    uint64 // attempt number; wait-die retries bump it (see request)
	strat    partition.Strategy
	failed   bool
	system   bool // capture-exempt (migration and other internal work)
	twoPhase bool // current commit concluded a prepare round
	rng      prng

	// touched is the attempt's participant state, one entry per group:
	// empty until the first locked statement, emptied by a retry. sticky
	// is the follower-read affinity per group, re-seeded when the chosen
	// replica cannot serve; it survives retries, and stays empty while
	// only one-member groups are read (they have no follower).
	touched groupMap[part]
	sticky  groupMap[int]
	groups  []int // participants' buffer; survives retries

	capture CaptureFunc
	accs    []workload.Access

	// mets mirrors the coordinator's handle set (nil when observability
	// is off); span is this attempt's sampled trace root, nil for the
	// (vastly more common) unsampled attempts — every span call below is
	// nil-safe and free in that case.
	mets *coordMetrics
	span *obs.Span

	observer StmtObserver
	// Per-statement classification of the current attempt. A statement is
	// counted exactly once however many keys it matches or replicas it
	// fans out to: stmtDist increments when the statement's (deduplicated)
	// target set spans more than one node, stmtLocal otherwise.
	stmtLocal int
	stmtDist  int
}

// SetStmtObserver installs (or, with nil, removes) the per-statement
// hook. Retries keep the observer.
func (t *Txn) SetStmtObserver(fn StmtObserver) { t.observer = fn }

// StmtCounts returns the current attempt's per-statement classification:
// how many statements executed on a single node and how many spanned
// several. Counters reset when a concurrency-control retry restarts the
// transaction, so after Commit they describe the committed execution.
func (t *Txn) StmtCounts() (local, distributed int) {
	return t.stmtLocal, t.stmtDist
}

// Begin starts a transaction with a fresh wait-die timestamp.
func (co *Coordinator) Begin() *Txn { return co.begin(false) }

func (co *Coordinator) begin(system bool) *Txn {
	co.mu.RLock()
	strat, capture := co.strategy, co.capture
	co.mu.RUnlock()
	if system {
		capture = nil
	}
	t := &Txn{
		co: co, ts: co.c.clock.Next(), epoch: 1, strat: strat, capture: capture, system: system,
		rng:  prng(co.c.clock.Next()),
		mets: co.mets,
	}
	if t.mets != nil {
		t.span = t.mets.tracer.Start("txn")
	}
	co.register(t.ts)
	return t
}

// reset prepares the handle for a retry, KEEPING the timestamp: wait-die
// relies on retried transactions aging so they eventually win conflicts.
// The routing strategy is re-read so retries observe live swaps.
func (t *Txn) reset() {
	t.co.mu.RLock()
	t.strat, t.capture = t.co.strategy, t.co.capture
	t.co.mu.RUnlock()
	if t.system {
		t.capture = nil
	}
	t.touched.reset()
	t.failed = false
	t.twoPhase = false
	t.epoch++ // new attempt: participants must not honour the old one's messages
	t.accs = t.accs[:0]
	t.stmtLocal, t.stmtDist = 0, 0
	if t.mets != nil {
		t.span = t.mets.tracer.Start("txn")
	}
	t.co.register(t.ts)
}

// Touched returns the number of partitions (groups; nodes when R = 1)
// this transaction has accessed.
func (t *Txn) Touched() int { return len(t.touched.list) }

// part is a transaction attempt's state in one participant group.
type part struct {
	// member executed for us on the locked path (valid when pinned): it
	// holds our locks and undo, so later statements and every protocol
	// message follow it.
	member int
	pinned bool
	// wrote: reads of the group must see our writes, so they take the
	// locked path, never a follower.
	wrote bool
}

// touch marks group g a participant of this attempt, and a written one
// when write.
func (t *Txn) touch(g int, write bool) {
	p, _ := t.touched.get(g)
	p.wrote = p.wrote || write
	t.touched.set(g, p)
}

// pin records member nid as the one executing for this attempt in g.
func (t *Txn) pin(g, nid int) {
	p, _ := t.touched.get(g)
	p.member, p.pinned = nid, true
	t.touched.set(g, p)
}

// served returns the member pinned for group g, if any.
func (t *Txn) served(g int) (int, bool) {
	p, _ := t.touched.get(g)
	return p.member, p.pinned
}

// groupMap is a short list of (group, value) pairs in first-set order:
// a transaction touches and reads few groups, so a scan does the lookup,
// and the first pair lives in the Txn itself.
type groupMap[V any] struct {
	list []groupVal[V] // buf[:0] once the first group is set
	buf  [1]groupVal[V]
}

type groupVal[V any] struct {
	group int
	val   V
}

// get returns g's value and whether g is set (the zero value when not).
func (m *groupMap[V]) get(g int) (V, bool) {
	for _, e := range m.list {
		if e.group == g {
			return e.val, true
		}
	}
	var zero V
	return zero, false
}

func (m *groupMap[V]) set(g int, v V) {
	for i := range m.list {
		if m.list[i].group == g {
			m.list[i].val = v
			return
		}
	}
	if m.list == nil {
		m.list = m.buf[:0]
	}
	m.list = append(m.list, groupVal[V]{g, v})
}

func (m *groupMap[V]) reset() { m.list = m.list[:0] }

// participants lists the attempt's participant groups in first-touch
// order, in a Txn-owned buffer the next call overwrites.
func (t *Txn) participants() []int {
	t.groups = t.groups[:0]
	for _, p := range t.touched.list {
		t.groups = append(t.groups, p.group)
	}
	return t.groups
}

// plan is one statement ready to run, the single shape every entry point
// (Exec, ExecStmt, ExecStmtAt, ExecPrepared) reduces to and the request
// carries to the node: the statement, the arguments its placeholders take
// (nil for ad-hoc SQL, which has none), and what the coordinator already
// derived from it, so the node's executor derives nothing twice.
type plan struct {
	stmt  sqlparse.Statement
	args  []datum.D
	table string
	write bool
	// cons/routable are sqlparse.Constraints' result: the router's input
	// here, the primary-key / range / index lookup on the node.
	cons     []sqlparse.Constraint
	routable bool
}

// adhocPlan plans a parsed statement that has no placeholders to bind.
func adhocPlan(stmt sqlparse.Statement) *plan {
	table, cons, routable := sqlparse.Constraints(stmt)
	return &plan{stmt: stmt, table: table, write: isWrite(stmt), cons: cons, routable: routable}
}

var errTxnFailed = errors.New("cluster: transaction already failed; abort and retry")

// Exec parses, routes and executes one SQL statement within the
// transaction, returning the (unioned) result rows. Statements a client
// issues repeatedly are cheaper through ExecPrepared.
func (t *Txn) Exec(sql string) ([]storage.Row, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return t.ExecStmt(stmt)
}

// ExecStmt executes a pre-parsed statement.
func (t *Txn) ExecStmt(stmt sqlparse.Statement) ([]storage.Row, error) {
	if t.failed {
		return nil, errTxnFailed
	}
	switch stmt.(type) {
	case *sqlparse.Begin:
		return nil, nil
	case *sqlparse.Commit:
		return nil, t.Commit()
	case *sqlparse.Rollback:
		t.Abort()
		return nil, nil
	}
	return t.route(adhocPlan(stmt))
}

// ExecPrepared executes a prepared statement with args bound to its
// placeholders, in order. Nothing is parsed and the AST is not walked:
// the routing constraints come from the statement's skeleton. args is
// read until the statement returns; p may be shared between goroutines.
func (t *Txn) ExecPrepared(p *sqlparse.Prepared, args ...datum.D) ([]storage.Row, error) {
	pl, err := t.bind(p, args)
	if err != nil {
		return nil, err
	}
	return t.route(pl)
}

// ExecPreparedAt is ExecPrepared on an explicit node set, bypassing the
// router as ExecStmtAt does. The live migration executor re-creates each
// copied row at its new home through it, the row's values as args.
func (t *Txn) ExecPreparedAt(p *sqlparse.Prepared, nodes []int, args ...datum.D) ([]storage.Row, error) {
	pl, err := t.bind(p, args)
	if err != nil || len(nodes) == 0 {
		return nil, err
	}
	return t.execOn(pl, nodes)
}

// bind plans a prepared statement with args bound to its placeholders.
func (t *Txn) bind(p *sqlparse.Prepared, args []datum.D) (*plan, error) {
	if t.failed {
		return nil, errTxnFailed
	}
	if len(args) != p.NumParams() {
		return nil, fmt.Errorf("cluster: %d arguments for the %d placeholders of %q", len(args), p.NumParams(), p.SQL())
	}
	cons, routable := p.Constraints(args)
	return &plan{stmt: p.Template(), args: args, table: p.Table(), write: p.Write(), cons: cons, routable: routable}, nil
}

// route picks the statement's target partitions (App. C.2) and runs it.
func (t *Txn) route(pl *plan) ([]storage.Row, error) {
	route := t.strat.RouteStmt(pl.table, pl.cons, pl.routable)
	var targets []int
	switch {
	case pl.write && len(route.All) > 0:
		targets = route.All
	case len(route.Single) > 0:
		// A read any one replica serves, or an unconstrained write (e.g.
		// INSERT of a brand-new tuple under a floating lookup strategy):
		// place it at the transaction's home.
		targets = []int{t.pickReplica(route.Single)}
	default:
		targets = route.All
	}
	if len(targets) == 0 {
		targets = allNodes(t.co.c.NumGroups())
	}
	return t.execOn(pl, targets)
}

// ExecStmtAt executes a pre-parsed statement on an explicit node set,
// bypassing the router. The live migration executor uses this to lock a
// batch's rows at their source with one SELECT … IN … FOR UPDATE and to
// delete replicas by key list; row locks and two-phase commit apply
// exactly as for routed statements.
func (t *Txn) ExecStmtAt(stmt sqlparse.Statement, nodes []int) ([]storage.Row, error) {
	if t.failed {
		return nil, errTxnFailed
	}
	if len(nodes) == 0 {
		return nil, nil
	}
	return t.execOn(adhocPlan(stmt), nodes)
}

// execOn fans a statement out to targets and merges the replies, recording
// the accessed tuples when capture is on. A statement touching several
// nodes (write-all on replicated tuples, broadcast reads) has every
// replica report the same logical key; those are deduplicated so the
// captured access set matches offline trace semantics (one access per
// tuple per statement). Each node applies a SELECT's ORDER BY and LIMIT to
// its own rows; with several targets the merged rows are sorted and cut
// again here, so the result is the global first LIMIT rows.
func (t *Txn) execOn(pl *plan, targets []int) ([]storage.Row, error) {
	if len(targets) > 1 {
		t.stmtDist++
	} else {
		t.stmtLocal++
	}
	if t.system {
		// Live migration runs as system transactions; fire the fault
		// trigger per target of each of a batch's grouped statements, so
		// chaos schedules can kill a node in the middle of a batch's copy.
		for _, nid := range targets {
			t.co.c.hooks.fire(DuringMigrationCopy, nid)
		}
	}
	start := time.Time{}
	if t.observer != nil || t.mets != nil {
		start = time.Now()
	}
	resps := t.fanout(reqExec, pl, targets)
	var rows []storage.Row
	order := 0 // ORDER BY column's position in the rows, as the nodes report it
	var seen map[int64]struct{}
	if t.capture != nil && len(targets) > 1 {
		seen = make(map[int64]struct{})
	}
	for _, r := range resps {
		if r.err != nil {
			t.failed = true
			return nil, r.err
		}
		if rows == nil {
			rows = r.rows // built for this request alone: no copy needed
		} else {
			rows = append(rows, r.rows...)
		}
		order = r.order
		if t.capture != nil {
			for _, k := range r.keys {
				if seen != nil {
					if _, dup := seen[k]; dup {
						continue
					}
					seen[k] = struct{}{}
				}
				t.accs = append(t.accs, workload.Access{
					Tuple: workload.TupleID{Table: pl.table, Key: k},
					Write: pl.write,
				})
			}
		}
	}
	if s, ok := pl.stmt.(*sqlparse.Select); ok && len(targets) > 1 {
		rows = cutMerged(s, rows, order)
	}
	if t.observer != nil || t.mets != nil {
		d := time.Since(start)
		if t.observer != nil {
			t.observer(pl.table, pl.write, len(targets), d)
		}
		if t.mets != nil {
			t.mets.route.Record(d)
		}
	}
	return rows, nil
}

// cutMerged applies a SELECT's ORDER BY and LIMIT to the concatenated
// replies of several nodes: each node sorted and cut only its own rows.
// ci is the ORDER BY column's position in the rows. Ties keep reply order.
func cutMerged(s *sqlparse.Select, rows []storage.Row, ci int) []storage.Row {
	if s.OrderBy != nil {
		slices.SortStableFunc(rows, func(a, b storage.Row) int {
			if s.Desc {
				return datum.Compare(b[ci], a[ci])
			}
			return datum.Compare(a[ci], b[ci])
		})
	}
	if s.Limit >= 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	return rows
}

// pickReplica chooses a read replica, preferring a partition the
// transaction already touched (§5.4: this reduces distributed
// transactions). Stickiness yields to availability: a touched partition
// that is crashed or paused is skipped and the choice re-seeded among
// the live candidates, so reads fail over instead of chasing a dead
// replica until the transaction starves.
func (t *Txn) pickReplica(single []int) int {
	c := t.co.c
	for _, p := range single {
		if _, touched := t.touched.get(p); touched && c.partitionAvailable(p) {
			return p
		}
	}
	avail := make([]int, 0, len(single))
	for _, p := range single {
		if c.partitionAvailable(p) {
			avail = append(avail, p)
		}
	}
	if len(avail) == 0 {
		avail = single // nothing is up; fail fast on whatever we pick
	}
	return avail[t.rng.intn(len(avail))]
}

// Commit finishes the transaction: a transaction on one group commits
// in one round; one spanning groups runs two-phase commit (prepare all,
// then commit or abort all) as in §3.
func (t *Txn) Commit() error {
	if t.failed {
		t.Abort()
		return errors.New("cluster: commit of failed transaction")
	}
	defer t.co.deregister(t.ts)
	nodes := t.participants()
	if len(nodes) == 0 {
		t.captured()
		return nil
	}
	if len(nodes) == 1 {
		resp := t.fanout(reqCommit, nil, nodes)
		if err := resp[0].err; err != nil {
			if errors.Is(err, ErrNodeDown) || errors.Is(err, ErrNotLeader) {
				// The node refused the commit without processing it (crash,
				// a restart whose recovery undid the writes, or a deposed
				// group leader whose unprepared writes were already swept),
				// so the transaction did not commit and its writes die with
				// the refusal. Safe to retry whole.
				return fmt.Errorf("cluster: commit refused by node %d: %w", nodes[0], err)
			}
			// Timeout: the commit is queued and may still apply when the
			// node comes back. The outcome is unknown — deliberately NOT
			// retryable, or a later-applying queued commit plus a re-run
			// would double-execute the transaction.
			return fmt.Errorf("cluster: commit outcome unknown on node %d: %v", nodes[0], err)
		}
		t.captured()
		return nil
	}
	// Two-phase commit. Prepare round: any no vote, refusal or timeout
	// aborts — presumed abort needs no decision record for that, and a
	// participant whose vote was lost in flight aborts itself at
	// recovery (or via the abort fan-out below, which queues behind any
	// still-pending prepare on a stalled node).
	t.twoPhase = true
	prepStart := time.Time{}
	if t.mets != nil {
		prepStart = time.Now()
	}
	votes := t.fanout(reqPrepare, nil, nodes)
	if t.mets != nil {
		t.mets.prepare.Record(time.Since(prepStart))
	}
	for _, v := range votes {
		if v.err != nil {
			t.fanout(reqAbort, nil, nodes)
			return fmt.Errorf("cluster: participant voted no: %w", v.err)
		}
	}
	// Every participant voted yes: record the commit decision BEFORE
	// telling anyone — from this instant the transaction is committed,
	// and a participant that crashes before hearing so will learn it
	// from this record via the termination protocol. The record is only
	// garbage-collected once every participant acked; delivery failures
	// bound-retry and then leave the record in place, so it keeps its own
	// copy of the participants, not the Txn's buffer.
	t.co.recordCommit(t.ts, slices.Clone(nodes))
	commitStart := time.Time{}
	if t.mets != nil {
		commitStart = time.Now()
	}
	if t.deliverCommit(nodes) {
		t.co.forgetCommit(t.ts)
	}
	if t.mets != nil {
		t.mets.commit.Record(time.Since(commitStart))
	}
	t.captured()
	return nil
}

// commitRetries is how many extra delivery rounds deliverCommit gives
// participants that fail to ack a commit decision.
const commitRetries = 3

// deliverCommit fans the commit decision out, re-sending to participants
// that failed to ack (crashed mid-delivery, RPC timeout) commitRetries
// times. It reports whether every participant acked — the caller keeps
// the decision record otherwise, so stragglers can still learn the
// outcome during recovery. The transaction's fate is already sealed;
// this is pure delivery.
func (t *Txn) deliverCommit(nodes []int) bool {
	pending := nodes
	for attempt := 0; ; attempt++ {
		resps := t.fanout(reqCommit, nil, pending)
		var failed []int
		for i, r := range resps {
			if r.err != nil {
				failed = append(failed, pending[i])
			}
		}
		if len(failed) == 0 {
			return true
		}
		if attempt >= commitRetries {
			return false
		}
		pending = failed
		time.Sleep(retryBackoff(attempt, &t.rng))
	}
}

// captured runs on every successful commit: it counts the commit,
// resolves the first-commit watch, closes the attempt's trace span, and
// delivers the transaction's access set to the capture hook.
func (t *Txn) captured() {
	if m := t.mets; m != nil {
		m.committed.Inc()
		if t.Touched() > 1 {
			m.distributed.Inc()
		}
		if t.twoPhase {
			m.twoPhase.Inc()
		} else {
			m.onePhase.Inc()
		}
		m.reg.MarkCommit(t.participants())
		if t.span != nil {
			t.span.Annotate("committed nodes=%d", t.Touched())
			t.span.Finish()
			t.span = nil
		}
	}
	if t.capture != nil && len(t.accs) > 0 {
		t.capture(t.accs)
		t.accs = t.accs[:0]
	}
}

// Abort rolls the transaction back in every participant group.
func (t *Txn) Abort() {
	if t.Touched() > 0 {
		t.fanout(reqAbort, nil, t.participants())
	}
	if t.span != nil {
		t.span.Annotate("aborted")
		t.span.Finish()
		t.span = nil
	}
	t.failed = true
	t.co.deregister(t.ts)
}

// reqName is the trace-span label of a protocol message kind.
func reqName(kind reqKind) string {
	switch kind {
	case reqExec:
		return "exec"
	case reqPrepare:
		return "prepare"
	case reqCommit:
		return "commit"
	default:
		return "abort"
	}
}

func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func isWrite(stmt sqlparse.Statement) bool {
	switch stmt.(type) {
	case *sqlparse.Update, *sqlparse.Insert, *sqlparse.Delete:
		return true
	}
	return false
}

// IsRetryable reports whether an error is an abort the client should
// retry: a concurrency-control abort (wait-die or lock timeout), a
// statement or vote refused by a crashed node (the transaction rolled
// back; the retry succeeds once the node recovers or routing avoids
// it), a lock manager shut down by a crash mid-wait, a prepare-round
// RPC timeout (presumed abort: no commit record exists, so the stalled
// participant's queued vote is answered by the queued abort), or — on a
// replicated cluster — a request that outran a leader change
// (ErrNotLeader, carrying a redirect hint via LeaderHintError) or a
// follower whose lease lapsed mid-read (ErrLeaseExpired); both refuse
// before acting, so the retry re-routes against the new leader. A
// COMMIT round timeout is deliberately not retryable — see Commit.
func IsRetryable(err error) bool {
	return errors.Is(err, txn.ErrDie) || errors.Is(err, txn.ErrTimeout) ||
		errors.Is(err, txn.ErrShutdown) || errors.Is(err, ErrNodeDown) ||
		errors.Is(err, ErrRPCTimeout) || errors.Is(err, ErrNotLeader) ||
		errors.Is(err, ErrLeaseExpired)
}

// RetryCauses lists every classification RetryCause can return, in
// reporting order. Metric names are "txn.retry.<cause>".
var RetryCauses = []string{
	"wait-die", "lock-timeout", "lock-shutdown", "node-down",
	"rpc-timeout", "not-leader", "lease-expired", "other",
}

// RetryCause classifies a retryable error by root cause, mirroring the
// error set IsRetryable accepts. This is the single place retry
// taxonomy lives: the coordinator's retry counters and any operator
// tooling classify through it, rather than re-matching error chains at
// scattered call sites. Non-retryable errors classify as "other".
func RetryCause(err error) string {
	switch {
	case errors.Is(err, txn.ErrDie):
		return "wait-die"
	case errors.Is(err, txn.ErrTimeout):
		return "lock-timeout"
	case errors.Is(err, txn.ErrShutdown):
		return "lock-shutdown"
	case errors.Is(err, ErrNodeDown):
		return "node-down"
	case errors.Is(err, ErrRPCTimeout):
		return "rpc-timeout"
	case errors.Is(err, ErrNotLeader):
		return "not-leader"
	case errors.Is(err, ErrLeaseExpired):
		return "lease-expired"
	default:
		return "other"
	}
}

// TxnResult summarises one transaction driven through the retry loop.
type TxnResult struct {
	// Distributed reports whether the committed execution touched more
	// than one node.
	Distributed bool
	// Nodes is the number of nodes the committed execution touched.
	Nodes int
	// Aborts counts the concurrency-control aborts that were retried
	// before the transaction committed (or was given up on).
	Aborts int
	// StmtLocal / StmtDistributed classify the committed execution's
	// statements: each statement counts exactly once, as distributed when
	// its deduplicated node target set spanned more than one node.
	StmtLocal, StmtDistributed int
}

// RunTxn executes fn as a transaction, retrying concurrency-control aborts
// with the same timestamp (so the retry ages and eventually wins). It
// returns whether the committed execution was distributed and how many
// aborts occurred.
func (co *Coordinator) RunTxn(fn func(*Txn) error) (distributed bool, aborts int, err error) {
	res, err := co.runTxn(co.begin(false), fn)
	return res.Distributed, res.Aborts, err
}

// RunTxnStats is RunTxn with the full per-transaction result: node span
// and per-statement distributed-vs-local classification. The benchmark
// driver's counters are built from it.
func (co *Coordinator) RunTxnStats(fn func(*Txn) error) (TxnResult, error) {
	return co.runTxn(co.begin(false), fn)
}

// RunSystemTxn is RunTxn with workload capture suppressed: internal work
// (the live migration executor) must not record its own transactions into
// the drift window it is reacting to.
func (co *Coordinator) RunSystemTxn(fn func(*Txn) error) (distributed bool, aborts int, err error) {
	res, err := co.runTxn(co.begin(true), fn)
	return res.Distributed, res.Aborts, err
}

func (co *Coordinator) runTxn(t *Txn, fn func(*Txn) error) (TxnResult, error) {
	const maxAttempts = 200
	res := TxnResult{}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		ferr := fn(t)
		if ferr == nil {
			ferr = t.Commit()
			if ferr == nil {
				res.Distributed = t.Touched() > 1
				res.Nodes = t.Touched()
				res.StmtLocal, res.StmtDistributed = t.stmtLocal, t.stmtDist
				return res, nil
			}
		} else {
			t.Abort()
		}
		if !IsRetryable(ferr) {
			if m := co.mets; m != nil {
				m.failed.Inc()
			}
			return res, ferr
		}
		res.Aborts++
		if m := co.mets; m != nil {
			m.retry(RetryCause(ferr))
		}
		// Exponential backoff with jitter: a wait-die victim usually died
		// against a holder that keeps its locks for the rest of a multi-
		// statement transaction, so immediate retries just die again
		// (and flood the executors with doomed statements). Backing off
		// toward the holder's timescale turns a retry storm into roughly
		// one retry per conflict; the victim keeps its timestamp, so it
		// still ages and eventually wins.
		backoff := retryBackoff(attempt, &t.rng)
		if m := co.mets; m != nil {
			m.backoffNS.Add(int64(backoff))
		}
		time.Sleep(backoff)
		t.reset()
	}
	t.co.deregister(t.ts)
	if m := co.mets; m != nil {
		m.failed.Inc()
	}
	return res, fmt.Errorf("cluster: transaction starved after %d attempts", maxAttempts)
}

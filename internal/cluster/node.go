package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"schism/internal/cluster/repl"
	"schism/internal/cluster/wal"
	"schism/internal/obs"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/txn"
)

// queueDepth is each node's request queue length.
const queueDepth = 1024

type reqKind int

const (
	reqExec reqKind = iota
	reqPrepare
	reqCommit
	reqAbort
)

type request struct {
	kind reqKind
	ts   txn.TS
	// epoch is the transaction's attempt number (wait-die retries reuse
	// ts). Participants track the epoch that created their state so a
	// stale message — e.g. the abort of a timed-out earlier attempt, still
	// queued on a paused node when the retry's messages arrive — can be
	// recognised and ignored instead of killing the live attempt.
	epoch   uint64
	plan    *plan // the statement of a reqExec; nil for protocol messages
	capture bool  // ask the executor to report accessed keys
	// replRead marks a read the router deliberately sent to a chosen
	// replica of a group: a follower may serve it locally (lock-free,
	// committed prefix) while its lease is valid; the leader serves it
	// through the normal locked path.
	replRead bool
	// twoPhase marks a commit that concluded a prepare round: the
	// prepare entry is in the group log, so a leader with no local trace
	// of the transaction may still replicate the decision.
	twoPhase bool
	// cont marks a statement of a transaction that already executed on
	// this group/node: participant state MUST exist. Its absence means
	// the state died (crash+restart, or a leader deposition sweep) along
	// with the earlier statements' effects — executing on a silently
	// fresh state would let a partial transaction commit, so the node
	// refuses and the whole transaction retries.
	cont   bool
	sentAt time.Time
	reply  chan response
	// trace is the coordinator-side span for this protocol message, nil
	// unless the transaction was sampled. Node-side phases (quorum
	// append, WAL force) hang children off it; all span calls are
	// nil-safe.
	trace *obs.Span
}

type response struct {
	rows []storage.Row
	n    int     // rows affected for writes
	keys []int64 // accessed keys, populated only when request.capture
	// order is the position in rows of the column a SELECT's ORDER BY
	// names: the coordinator re-sorts several nodes' rows on it.
	order int
	// locked reports that the statement ran under the native locked path
	// (a replica-routed read served by the member that happens to lead
	// holds locks; the router must treat the group as a participant).
	locked bool
	err    error
	sentAt time.Time
}

// nodeStatus is a node's lifecycle state. Transitions: running -> paused
// -> running (Pause/Resume), running|paused -> crashed (Crash), crashed
// -> recovering -> running (Restart).
type nodeStatus int32

const (
	statusRunning nodeStatus = iota
	// statusPaused models a network partition / stall: requests queue and
	// the node answers nothing until Resume. Volatile state survives.
	statusPaused
	// statusCrashed models process death: the lock table, participant
	// states and in-flight work are lost. The storage image and the WAL
	// (the "disks") survive. Requests are refused with ErrNodeDown.
	statusCrashed
	// statusRecovering: Restart is replaying the WAL; requests are still
	// refused until recovery completes.
	statusRecovering
)

// Node is one shared-nothing server: a local database, a lock manager, a
// write-ahead log and a pool of executor workers consuming a request
// queue.
type Node struct {
	ID  int
	cfg Config

	db    *storage.Database
	locks *txn.LockManager
	latch sync.RWMutex // protects tree/index structure; row locks protect data
	// rowBuf is where execUpdate and execInsert build the row they are
	// about to write (storage copies it in); used only with latch
	// write-held.
	rowBuf storage.Row

	wal   *wal.Log
	hooks *hookSlot

	reqCh chan *request
	wg    sync.WaitGroup

	// status is the lifecycle state; inflight counts workers currently
	// serving a request against live node state. Restart waits for
	// inflight to drain to zero after the crash flag settles, so recovery
	// never races a worker that passed the status check before the crash.
	status   atomic.Int32
	inflight atomic.Int64

	pmu     sync.Mutex
	pauseCh chan struct{} // non-nil while paused; closed on Resume/Crash

	// ops counts statement executions this node performed (load metric:
	// the benchmark driver diffs snapshots to compute per-node imbalance).
	ops atomic.Int64

	tmu  sync.Mutex
	txns map[txn.TS]*txnState

	// grp is this node's consensus-group membership (nil: replication
	// off). The pointer swaps to a fresh runtime on restart.
	grp atomic.Pointer[groupRuntime]
	// leaderGate serializes statement execution against deposition:
	// execute/prepare hold it shared, the RoleChange(follower) sweep
	// that rolls back unprepared transactions holds it exclusively.
	leaderGate sync.RWMutex

	// mets is the node-side phase instrumentation (nil: observability
	// off).
	mets *nodeMetrics
}

// nodeMetrics resolves a node's phase-latency histograms once. They are
// shared across nodes (one histogram per phase cluster-wide); Hist
// recording is wait-free so sharing costs nothing.
type nodeMetrics struct {
	quorumAppend *obs.Hist // prepare entry proposed -> quorum-committed
	applyWait    *obs.Hist // commit entry proposed -> applied
	walForce     *obs.Hist // synchronous log-force latency
	leaseRefused *obs.Counter
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	if reg == nil {
		return nil
	}
	return &nodeMetrics{
		quorumAppend: reg.Hist("repl.append.quorum"),
		applyWait:    reg.Hist("repl.commit.apply"),
		walForce:     reg.Hist("wal.force"),
		leaseRefused: reg.Counter("repl.lease_refused"),
	}
}

// txnState is 2PC participant state for one transaction on this node.
type txnState struct {
	epoch    uint64 // attempt number that created this state (0: recovery)
	undo     []undoRec
	prepared bool
	doomed   bool // a statement failed; must vote no
}

type undoRec struct {
	table  string
	key    int64
	oldRow storage.Row // nil means the key did not exist (undo = delete)
}

func newNode(id int, cfg Config, db *storage.Database, hooks *hookSlot) *Node {
	n := &Node{
		ID:    id,
		cfg:   cfg,
		db:    db,
		locks: txn.NewLockManager(cfg.LockTimeout),
		wal:   wal.New(cfg.LogForce, 0),
		hooks: hooks,
		reqCh: make(chan *request, queueDepth),
		txns:  make(map[txn.TS]*txnState),
		mets:  newNodeMetrics(cfg.Obs),
	}
	for w := 0; w < cfg.WorkersPerNode; w++ {
		n.wg.Add(1)
		go n.worker()
	}
	return n
}

func (n *Node) close() {
	// A paused node's workers are parked on the pause gate; wake them so
	// the queue drains and wg.Wait terminates.
	n.pmu.Lock()
	if n.getStatus() == statusPaused {
		n.status.Store(int32(statusRunning))
		if n.pauseCh != nil {
			close(n.pauseCh)
			n.pauseCh = nil
		}
	}
	n.pmu.Unlock()
	close(n.reqCh)
	n.wg.Wait()
}

// DB exposes the node's local database for loading and verification.
// Callers must not use it while a load is running.
func (n *Node) DB() *storage.Database { return n.db }

// WAL exposes the node's write-ahead log (tests and benchmarks inspect
// force counts and replay sizes through it).
func (n *Node) WAL() *wal.Log { return n.wal }

// Ops returns the number of statements this node has executed since it
// started (monotonic; safe to read while traffic runs).
func (n *Node) Ops() int64 { return n.ops.Load() }

func (n *Node) getStatus() nodeStatus { return nodeStatus(n.status.Load()) }

// trigger fires the cluster's fault hook (if any) at a trigger point.
func (n *Node) trigger(p TriggerPoint) { n.hooks.fire(p, n.ID) }

// down reports whether the node is crashed or mid-recovery.
func (n *Node) down() bool {
	s := n.getStatus()
	return s == statusCrashed || s == statusRecovering
}

func (n *Node) downErr() error {
	return fmt.Errorf("cluster: node %d: %w", n.ID, ErrNodeDown)
}

// send enqueues a request; the caller reads the reply channel.
func (n *Node) send(r *request) {
	r.sentAt = time.Now()
	n.reqCh <- r
}

func (n *Node) worker() {
	defer n.wg.Done()
	for r := range n.reqCh {
		// The message spends NetworkDelay on the wire...
		waitNet(r.sentAt, n.cfg.NetworkDelay)
		n.process(r)
	}
}

// process dispatches one request against the node's lifecycle state: a
// running node serves it, a paused node parks the worker until Resume,
// a crashed (or recovering) node refuses it. The inflight counter
// brackets serve() so Restart can wait out workers that passed the
// status check before a crash flag settled.
func (n *Node) process(r *request) {
	for {
		n.inflight.Add(1)
		switch n.getStatus() {
		case statusRunning:
			n.serve(r)
			n.inflight.Add(-1)
			return
		case statusPaused:
			n.inflight.Add(-1)
			n.pmu.Lock()
			gate := n.pauseCh
			n.pmu.Unlock()
			if gate != nil {
				<-gate
			}
		default: // crashed or recovering: the dead node answers nothing useful
			n.inflight.Add(-1)
			r.reply <- response{err: n.downErr(), sentAt: time.Now()}
			return
		}
	}
}

// serve executes one request on a running node. Fault trigger points
// bracket the durable 2PC steps: BeforePrepareAck fires after the
// prepare request arrives but before the vote is logged (a crash here
// loses the vote — presumed abort), AfterPrepareAck fires once the yes
// vote is durable and the ack is on the wire (a crash here leaves the
// transaction in doubt: the coordinator has the vote, the node no
// longer knows the outcome), BeforeCommitAck fires before the commit
// record is logged (a crash here refuses a decision already taken
// globally — recovery learns it from the coordinator's record). A hook
// that crashes the node makes the down() re-check refuse the request; a
// hook that pauses it parks the worker right at the trigger instant
// until Resume.
func (n *Node) serve(r *request) {
	// ServiceTime of this worker's attention. Busy-spin rather than
	// sleep: service cost is CPU occupancy, and sleep granularity on some
	// hosts (~1ms) would swamp microsecond costs.
	if n.cfg.ServiceTime > 0 {
		spinWait(n.cfg.ServiceTime)
	}
	var resp response
	gr := n.grp.Load()
	switch r.kind {
	case reqExec:
		n.ops.Add(1)
		if gr != nil {
			resp = n.execReplicated(gr, r)
		} else {
			resp = n.execStmt(r.ts, r.epoch, r.plan, r.capture, r.cont)
		}
	case reqPrepare:
		n.trigger(BeforePrepareAck)
		n.pauseGate()
		if n.down() {
			resp.err = n.downErr()
		} else {
			if gr != nil {
				resp.err = n.prepareReplicated(gr, r)
			} else {
				resp.err = n.prepare(r)
			}
			if resp.err == nil {
				// The durable yes vote will be acked no matter what happens
				// to the node now: fire the in-doubt trigger before the
				// reply so "crash after ack" is deterministic.
				n.trigger(AfterPrepareAck)
			}
		}
	case reqCommit:
		n.trigger(BeforeCommitAck)
		n.pauseGate()
		switch {
		case n.down():
			resp.err = n.downErr()
		case gr != nil:
			resp.err = n.commitReplicated(gr, r)
		case !r.twoPhase && !n.hasState(r.ts):
			// One-round commit with no participant state: the node crashed
			// and restarted since the statements ran, and recovery undid
			// them as losers. Refuse so the whole transaction retries.
			resp.err = n.downErr()
		default:
			n.commit(r.ts)
		}
	case reqAbort:
		if gr != nil {
			n.abortReplicated(gr, r.ts, r.epoch)
		} else {
			n.abort(r.ts, r.epoch)
		}
	}
	resp.sentAt = time.Now()
	r.reply <- resp
}

// notLeaderErr builds the redirect reply for a request that needs the
// group leader but landed elsewhere.
func (n *Node) notLeaderErr(gr *groupRuntime) error {
	return &LeaderHintError{Group: gr.group, Leader: gr.rep.Leader()}
}

// execReplicated executes one statement on a group member. Writes (and
// reads the router pinned to the leader) run the native locked path,
// gated on ready leadership; replica-routed reads may be served by a
// lease-valid follower from its committed prefix, lock-free.
func (n *Node) execReplicated(gr *groupRuntime, r *request) response {
	if gr.leading.Load() {
		n.leaderGate.RLock()
		if !gr.leading.Load() { // deposed between check and gate
			n.leaderGate.RUnlock()
			return response{err: n.notLeaderErr(gr)}
		}
		resp := n.execStmt(r.ts, r.epoch, r.plan, r.capture, r.cont)
		n.leaderGate.RUnlock()
		resp.locked = true
		return resp
	}
	if !r.replRead {
		return response{err: n.notLeaderErr(gr)}
	}
	// Follower local read: sound only while the lease says this replica
	// is current, and only when the image holds no in-place writes of
	// undecided transactions (a deposed leader's prepared natives sit in
	// the image until their fate entry arrives).
	if !gr.rep.LeaseValid() || n.hasPreparedNative() {
		if m := n.mets; m != nil {
			m.leaseRefused.Inc()
		}
		return response{err: fmt.Errorf("cluster: node %d: %w", n.ID, ErrLeaseExpired)}
	}
	sel, ok := r.plan.stmt.(*sqlparse.Select)
	if !ok || sel.ForUpdate {
		return response{err: n.notLeaderErr(gr)}
	}
	return n.execSelect(r.ts, r.plan, sel, r.capture, false)
}

func (n *Node) hasState(ts txn.TS) bool {
	n.tmu.Lock()
	defer n.tmu.Unlock()
	return n.txns[ts] != nil
}

func (n *Node) hasPreparedNative() bool {
	n.tmu.Lock()
	defer n.tmu.Unlock()
	for _, st := range n.txns {
		if st.prepared {
			return true
		}
	}
	return false
}

// prepareReplicated is the 2PC vote on a group leader: the vote is a
// quorum-durable promise. The redo write-set (after-images) is proposed
// to the group log; only once that entry is COMMITTED — quorum-
// replicated in the leader's current term, so present in every future
// leader's log — does the node log its native prepare record and ack
// yes. A crash of any minority after the ack therefore cannot lose the
// promise: the new leader re-adopts the entry as in-doubt.
func (n *Node) prepareReplicated(gr *groupRuntime, r *request) error {
	ts, epoch := r.ts, r.epoch
	if !gr.leading.Load() {
		return n.notLeaderErr(gr)
	}
	n.tmu.Lock()
	st, err := n.voteLocked(ts, epoch)
	if err != nil {
		n.tmu.Unlock()
		return err
	}
	redo := n.buildRedoLocked(st.undo)
	var qStart time.Time
	if n.mets != nil {
		qStart = time.Now()
	}
	qsp := r.trace.Child("repl.append.quorum")
	idx, err := gr.rep.Propose(repl.Entry{Kind: repl.KPrepare, TS: uint64(ts), Epoch: epoch, Redo: redo})
	n.tmu.Unlock()
	if err != nil {
		qsp.Finish()
		return n.notLeaderErr(gr)
	}
	bound := n.cfg.RPCTimeout
	if bound <= 0 {
		bound = n.cfg.LockTimeout
	}
	if werr := gr.rep.WaitCommitted(idx, bound); werr != nil {
		// Quorum unreachable (or deposed): the entry MAY still commit
		// later, but without the ack the coordinator aborts — kill the
		// would-be pending so it cannot outlive the transaction. Presumed
		// abort makes the no vote safe either way.
		qsp.Annotate("quorum timeout")
		qsp.Finish()
		gr.rep.Propose(repl.Entry{Kind: repl.KAbort, TS: uint64(ts), Epoch: epoch})
		return fmt.Errorf("cluster: vote no: prepare not replicated: %w", ErrRPCTimeout)
	}
	qsp.Finish()
	if n.mets != nil {
		n.mets.quorumAppend.Record(time.Since(qStart))
	}
	n.tmu.Lock()
	if cur := n.txns[ts]; cur != st || cur.epoch != epoch {
		// Aborted while the quorum round ran (deposition sweep or a
		// concurrent abort): the pending created by our entry is cleaned
		// by the abort's own entry or the resolver.
		n.tmu.Unlock()
		gr.rep.Propose(repl.Entry{Kind: repl.KAbort, TS: uint64(ts), Epoch: epoch})
		return errors.New("cluster: vote no: transaction aborted during prepare")
	}
	pay := n.wal.AppendPrepareAsync(uint64(ts), writeSet(st.undo))
	st.prepared = true
	n.tmu.Unlock()
	n.payForce(pay, r.trace)
	return nil
}

// payForce charges a deferred WAL force, timing it (histogram and, when
// the transaction is sampled, a trace child) when observability is on.
func (n *Node) payForce(pay func(), trace *obs.Span) {
	if n.mets == nil {
		pay()
		return
	}
	sp := trace.Child("wal.force")
	start := time.Now()
	pay()
	n.mets.walForce.Record(time.Since(start))
	sp.Finish()
}

// buildRedoLocked extracts a transaction's redo write-set: the CURRENT
// row image (after all its statements) for every key it wrote, nil for
// keys it deleted, in first-write order. A key written by several
// statements has an undo record per statement; the later ones are
// skipped by scanning the mutations already built, which for the few
// keys a transaction writes is cheaper than a map per prepare (the scan
// is quadratic in the keys written). Caller holds tmu; rows are read
// under the latch.
func (n *Node) buildRedoLocked(undo []undoRec) []repl.Mutation {
	n.latch.RLock()
	defer n.latch.RUnlock()
	redo := make([]repl.Mutation, 0, len(undo))
	for _, u := range undo {
		if slices.ContainsFunc(redo, func(m repl.Mutation) bool { return m.Key == u.key && m.Table == u.table }) {
			continue
		}
		m := repl.Mutation{Table: u.table, Key: u.key}
		if tbl := n.db.Table(u.table); tbl != nil {
			if row, ok := tbl.Get(u.key); ok {
				m.Row = row
			}
		}
		redo = append(redo, m)
	}
	return redo
}

// commitReplicated handles a commit request on a group member. The
// decision is replicated through the group log and acked only once
// applied locally (which writes the native commit record or installs
// the redo). Single-group transactions (no prepare round) ride their
// redo on the commit entry itself.
func (n *Node) commitReplicated(gr *groupRuntime, r *request) error {
	ts := r.ts
	n.tmu.Lock()
	st := n.txns[ts]
	var entry repl.Entry
	switch {
	case st != nil && st.prepared:
		entry = repl.Entry{Kind: repl.KCommit, TS: uint64(ts), Epoch: st.epoch}
	case st != nil:
		// One-round commit of a single-group transaction: replicate the
		// decision with its redo so followers converge.
		entry = repl.Entry{Kind: repl.KCommit, TS: uint64(ts), Epoch: st.epoch,
			Redo: n.buildRedoLocked(st.undo)}
	default:
		n.tmu.Unlock()
		gr.pmu.Lock()
		_, pending := gr.pendings[ts]
		gr.pmu.Unlock()
		if !pending && !r.twoPhase {
			// Single-group commit with no local trace: the executing
			// leader died or was deposed, and its unprepared writes died
			// with it. Refuse cleanly so the whole transaction retries.
			return n.downErr()
		}
		if !gr.leading.Load() {
			return n.notLeaderErr(gr)
		}
		// 2PC decision for an in-doubt entry inherited from a dead
		// leader (pending — or not yet applied, in which case the prepare
		// entry is still provably in our log: it was quorum-committed
		// before the coordinator could decide).
		entry = repl.Entry{Kind: repl.KCommit, TS: uint64(ts)}
		n.tmu.Lock()
	}
	if !gr.leading.Load() {
		n.tmu.Unlock()
		return n.notLeaderErr(gr)
	}
	var aStart time.Time
	if n.mets != nil {
		aStart = time.Now()
	}
	asp := r.trace.Child("repl.commit.apply")
	idx, err := gr.rep.Propose(entry)
	n.tmu.Unlock()
	if err != nil {
		asp.Finish()
		return n.notLeaderErr(gr)
	}
	bound := n.cfg.RPCTimeout
	if bound <= 0 {
		bound = n.cfg.LockTimeout
	}
	if werr := gr.rep.WaitApplied(idx, bound); werr != nil {
		asp.Annotate("apply timeout")
		asp.Finish()
		// Proposed but not confirmed applied: the commit may still land.
		// Deliberately NOT ErrNodeDown — the outcome is unknown, and a
		// retry could double-execute. The decision record + resolver
		// finish the job.
		return fmt.Errorf("cluster: commit outcome unknown on node %d: %v", n.ID, werr)
	}
	asp.Finish()
	if n.mets != nil {
		n.mets.applyWait.Record(time.Since(aStart))
	}
	return nil
}

// abortReplicated is abort plus, on the leader, replicating the abort
// fate if the transaction ever produced a durable prepare entry. The
// proposal is synchronous (local log append) so it is ordered BEFORE
// any later attempt's prepare entry — the epoch guard at apply handles
// the rest.
func (n *Node) abortReplicated(gr *groupRuntime, ts txn.TS, epoch uint64) {
	wasPrepared := n.abort(ts, epoch)
	if !gr.leading.Load() {
		return
	}
	gr.pmu.Lock()
	_, pending := gr.pendings[ts]
	gr.pmu.Unlock()
	if wasPrepared || pending {
		gr.rep.Propose(repl.Entry{Kind: repl.KAbort, TS: uint64(ts), Epoch: epoch})
	}
}

// pauseGate parks the calling worker while the node is paused (a fault
// hook pausing the node stalls the request at that exact instant).
func (n *Node) pauseGate() {
	for n.getStatus() == statusPaused {
		n.pmu.Lock()
		gate := n.pauseCh
		n.pmu.Unlock()
		if gate == nil {
			return
		}
		<-gate
	}
}

// state returns (creating if needed) the transaction's participant state.
func (n *Node) state(ts txn.TS) *txnState {
	n.tmu.Lock()
	defer n.tmu.Unlock()
	st := n.txns[ts]
	if st == nil {
		st = &txnState{}
		n.txns[ts] = st
	}
	return st
}

func (n *Node) execStmt(ts txn.TS, epoch uint64, pl *plan, capture, cont bool) response {
	n.tmu.Lock()
	st := n.txns[ts]
	if st != nil && st.epoch != epoch {
		// A previous attempt's state lingers: its abort fan-out is still
		// queued behind us (the node was paused when the coordinator gave
		// up on it). The coordinator never starts a new attempt before
		// dooming the old one, so roll the old attempt back here; the
		// queued stale abort will find an epoch mismatch and do nothing.
		n.rollbackLocked(ts, st)
		st = nil
	}
	if st == nil {
		if cont {
			// The coordinator already executed statements of this attempt
			// here, and that state is gone — lost to a crash+restart or a
			// leader deposition sweep. Starting fresh would let a PARTIAL
			// transaction prepare and commit; refuse so the whole
			// transaction retries.
			n.tmu.Unlock()
			return response{err: fmt.Errorf(
				"cluster: node %d: participant state lost mid-transaction: %w", n.ID, ErrNodeDown)}
		}
		st = &txnState{epoch: epoch}
		n.txns[ts] = st
	}
	n.tmu.Unlock()
	if st.doomed {
		return response{err: errors.New("cluster: transaction already failed on this node")}
	}
	resp := n.execute(ts, st, pl, capture)
	if resp.err != nil {
		st.doomed = true
	}
	return resp
}

// voteLocked is the 2PC vote check every participant runs: yes iff the
// asking attempt's state is here and every statement succeeded. A
// missing state (lost to a crash+restart or a deposition sweep since
// the statements ran) means nothing here can be committed; nothing
// durable happened for the attempt, so the refusal is retryable like
// any ErrNodeDown. A stale prepare from an attempt the coordinator
// already gave up on must not get a yes: it would durably promise the
// CURRENT attempt's half-built write-set to a requester that no longer
// exists. Under presumed abort a no vote is always safe. Caller holds
// tmu.
func (n *Node) voteLocked(ts txn.TS, epoch uint64) (*txnState, error) {
	st := n.txns[ts]
	switch {
	case st == nil:
		return nil, fmt.Errorf("cluster: vote no: participant state lost: %w", ErrNodeDown)
	case st.epoch != epoch:
		return nil, errors.New("cluster: vote no: stale prepare from a superseded attempt")
	case st.doomed:
		return nil, errors.New("cluster: vote no")
	}
	return st, nil
}

// prepare is the 2PC vote on a node of a one-member group. A yes vote
// logs the transaction's write-set and forces the WAL before it is
// acked — the vote is a durable promise to commit on demand, and after
// a crash recovery re-installs it as an in-doubt transaction.
// The vote check and the prepare-record append run atomically under tmu:
// a timed-out prepare can still be parked on a paused node when its own
// abort arrives, and logging a vote after the rollback would promise a
// write-set that no longer exists. The modeled flush latency is paid
// after tmu is released so it never serializes other transactions.
func (n *Node) prepare(r *request) error {
	n.tmu.Lock()
	st, err := n.voteLocked(r.ts, r.epoch)
	if err != nil {
		n.tmu.Unlock()
		return err
	}
	pay := n.wal.AppendPrepareAsync(uint64(r.ts), writeSet(st.undo))
	st.prepared = true
	n.tmu.Unlock()
	n.payForce(pay, r.trace)
	return nil
}

// writeSet extracts the (table, key) write-set from undo records.
func writeSet(undo []undoRec) []wal.Key {
	ws := make([]wal.Key, len(undo))
	for i, u := range undo {
		ws[i] = wal.Key{Table: u.table, Key: u.key}
	}
	return ws
}

// commit logs the commit decision (forced: the transaction is durable
// once the ack leaves this node), drops participant state and releases
// locks. The writes themselves were applied in place by the statements.
func (n *Node) commit(ts txn.TS) {
	n.wal.AppendCommit(uint64(ts))
	n.tmu.Lock()
	delete(n.txns, ts)
	n.tmu.Unlock()
	n.locks.ReleaseAll(ts)
}

// abort rolls back applied writes in reverse order and releases locks.
// The abort record is not forced: under presumed abort, a lost abort
// record just makes recovery redo the (idempotent) undo. An abort whose
// epoch does not match the live state — or that finds no state at all —
// is stale or duplicate and must touch NOTHING: in particular not the
// lock table, which a newer attempt of the same ts may be relying on.
// It reports whether the attempt it rolled back had voted yes.
func (n *Node) abort(ts txn.TS, epoch uint64) (wasPrepared bool) {
	n.tmu.Lock()
	defer n.tmu.Unlock()
	st := n.txns[ts]
	if st == nil || st.epoch != epoch {
		return false
	}
	n.rollbackLocked(ts, st)
	return st.prepared
}

// rollbackLocked rolls one attempt's writes back, logs the abort and
// releases its locks. Caller holds tmu; holding it across the undo and
// the lock release makes the state transition atomic against a racing
// stale message (tmu is always the outermost lock on these paths).
func (n *Node) rollbackLocked(ts txn.TS, st *txnState) {
	delete(n.txns, ts)
	n.applyUndo(st.undo)
	n.wal.AppendAbort(uint64(ts))
	n.locks.ReleaseAll(ts)
}

// applyUndo rolls back a transaction's writes in reverse order. It is
// idempotent — recovery may re-run an undo whose abort record was lost —
// so each step checks current existence rather than assuming it.
func (n *Node) applyUndo(undo []undoRec) {
	n.latch.Lock()
	defer n.latch.Unlock()
	for i := len(undo) - 1; i >= 0; i-- {
		u := undo[i]
		tbl := n.db.Table(u.table)
		if tbl == nil {
			continue
		}
		if u.oldRow == nil {
			tbl.Delete(u.key)
		} else if tbl.Has(u.key) {
			if err := tbl.Update(u.key, u.oldRow); err != nil {
				panic("cluster: undo failed: " + err.Error())
			}
		} else {
			if err := tbl.Insert(u.oldRow); err != nil {
				panic("cluster: undo failed: " + err.Error())
			}
		}
	}
}

package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"schism/internal/cluster/codec"
	"schism/internal/cluster/repl"
	"schism/internal/storage"
	"schism/internal/txn"
)

// This file wires the repl package into the cluster: each node carries a
// groupRuntime that implements repl.StateMachine over the node's local
// database, and the cluster's simulated network carries the group's
// consensus RPCs (subject to the link faults of fault.go).
//
// Division of labour: the group LEADER executes SQL natively — locks,
// in-place writes, node WAL — exactly like an unreplicated node, and
// replicates 2PC protocol events (prepare with redo write-set,
// commit/abort) through the group log. Followers buffer prepare redo as
// "pendings" and apply it at commit, so their image tracks the
// committed prefix; they never hold row locks for remote transactions
// except when a new leader adopts the locks of in-doubt entries it
// inherited. See DESIGN.md, "Replication and failover".

// groupRuntime is one node's membership in its replication group. A
// fresh instance is built per replica start (New and Restart); the
// node's grp pointer swaps to it.
type groupRuntime struct {
	c     *Cluster
	n     *Node
	group int
	rep   *repl.Replica

	// role is the apply-stream view of this replica's role (only the
	// apply goroutine writes it); leading is the serve-path gate — true
	// only between LeaderReady and the next deposition.
	role    repl.Role
	leading atomic.Bool

	// pendings tracks every in-flight prepared transaction the group log
	// has delivered and not yet resolved, keyed by timestamp. It covers
	// BOTH native in-doubt state (this node executed the statements) and
	// buffered remote redo; at commit, natives commit in place and
	// non-natives apply the redo.
	pmu      sync.Mutex
	pendings map[txn.TS]*pendingPrepare

	// snapLen is the payload length of the last Snapshot image, which
	// sizes the next one (apply goroutine only).
	snapLen int

	kick    chan struct{} // wakes the resolver early (LeaderReady)
	stopCh  chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

type pendingPrepare struct {
	redo    []repl.Mutation
	epoch   uint64
	born    time.Time
	adopted bool // a failover leader re-took this entry's write locks
}

// startGroup begins (or resumes, after Restart) this node's group
// membership around the given durable log. Native in-doubt states must
// already be reinstalled (recovery) before the apply loop starts.
func (n *Node) startGroup(c *Cluster, d *repl.Durable) {
	g := c.GroupOf(n.ID)
	gr := &groupRuntime{
		c: c, n: n, group: g,
		pendings: make(map[txn.TS]*pendingPrepare),
		kick:     make(chan struct{}, 1),
		stopCh:   make(chan struct{}),
	}
	gr.rebuildPendings(d)
	cfg := repl.Config{
		ID:              n.ID,
		Peers:           c.GroupMembers(g),
		Heartbeat:       c.cfg.ReplHeartbeat,
		ElectionTimeout: c.cfg.ReplElection,
		Lease:           c.cfg.ReplLease,
		CompactEntries:  c.cfg.ReplCompactEntries,
		Seed:            c.cfg.ReplSeed,
		Bootstrap:       n.ID == c.GroupMembers(g)[0],
	}
	gr.rep = repl.Start(cfg, d, gr, replTransport{c})
	n.grp.Store(gr)
	gr.wg.Add(1)
	go gr.resolver()
}

// stopGroup halts the consensus runtime (crash or shutdown); the
// durable log survives for the next startGroup.
func (n *Node) stopGroup() {
	gr := n.grp.Load()
	if gr == nil || !gr.stopped.CompareAndSwap(false, true) {
		return
	}
	gr.leading.Store(false)
	close(gr.stopCh)
	gr.rep.Stop()
	gr.wg.Wait()
}

// groupStatus returns the node's replica status; ok is false when
// replication is off or the group runtime is stopped.
func (n *Node) groupStatus() (repl.Status, bool) {
	gr := n.grp.Load()
	if gr == nil || gr.stopped.Load() {
		return repl.Status{}, false
	}
	return gr.rep.Status(), true
}

// rebuildPendings reconstructs the pending-prepare map from the durable
// log: the compaction snapshot's pendings, then the bookkeeping (not
// the data mutations — the storage image is durable) of every retained
// entry up to the applied watermark.
func (gr *groupRuntime) rebuildPendings(d *repl.Durable) {
	applied := d.Applied()
	if snap, snapIdx := d.Snapshot(); snap != nil && snapIdx <= applied {
		r, err := openSnapshot(snap)
		if err == nil {
			err = readSnapPendings(&r, gr.pendings)
		}
		if err != nil {
			panic("cluster: corrupt group snapshot: " + err.Error())
		}
	}
	d.Range(func(index uint64, e repl.Entry) bool {
		if index > applied {
			return false
		}
		ts := txn.TS(e.TS)
		switch e.Kind {
		case repl.KPrepare:
			gr.pendings[ts] = &pendingPrepare{redo: e.Redo, epoch: e.Epoch, born: time.Now()}
		case repl.KCommit, repl.KAbort:
			delete(gr.pendings, ts)
		}
		return true
	})
}

// ---------------------------------------------------------------------
// repl.StateMachine (all methods run on the replica's apply goroutine)

func (gr *groupRuntime) Apply(index uint64, e repl.Entry) {
	switch e.Kind {
	case repl.KPrepare:
		gr.applyPrepare(e)
	case repl.KCommit:
		gr.applyCommit(e)
	case repl.KAbort:
		gr.applyAbort(e)
	}
}

func (gr *groupRuntime) applyPrepare(e repl.Entry) {
	n := gr.n
	ts := txn.TS(e.TS)
	n.tmu.Lock()
	native := n.txns[ts] != nil
	n.tmu.Unlock()
	p := &pendingPrepare{redo: e.Redo, epoch: e.Epoch, born: time.Now()}
	gr.pmu.Lock()
	gr.pendings[ts] = p
	gr.pmu.Unlock()
	// A failover leader catching up (elected, not yet ready) re-takes the
	// write locks of inherited in-doubt entries so new transactions
	// cannot see or overwrite the undecided writes. A continuous leader
	// needs nothing: its native state already holds the locks (and if the
	// native state was just aborted, the coordinator is aborting the
	// transaction — the resolver will clean the pending up).
	if !native && gr.role == repl.Leader && !gr.leading.Load() {
		gr.adoptLocks(ts, p)
	}
}

// adoptLocks re-takes the exclusive locks of an inherited in-doubt
// entry. Only called while not yet serving (no competing client locks
// beyond other in-doubt holders, which cannot conflict), so failure is
// an invariant violation.
func (gr *groupRuntime) adoptLocks(ts txn.TS, p *pendingPrepare) {
	for _, m := range p.redo {
		if err := gr.n.locks.Acquire(ts, txn.LockKey{Table: m.Table, Key: m.Key}, txn.Exclusive); err != nil {
			panic("cluster: in-doubt lock adoption failed: " + err.Error())
		}
	}
	p.adopted = true
}

func (gr *groupRuntime) applyCommit(e repl.Entry) {
	n := gr.n
	ts := txn.TS(e.TS)
	gr.pmu.Lock()
	p := gr.pendings[ts]
	delete(gr.pendings, ts)
	gr.pmu.Unlock()
	n.tmu.Lock()
	native := n.txns[ts] != nil
	n.tmu.Unlock()
	if native {
		// This node executed the statements (it was leader): the writes
		// are in place, commit natively — log the decision, free state.
		n.commit(ts)
		return
	}
	redo := e.Redo
	if redo == nil && p != nil {
		redo = p.redo
	}
	if redo != nil {
		gr.applyRedo(redo)
	}
	// Frees adopted in-doubt locks if any; harmless otherwise (a commit
	// is final, so no retry attempt of this ts can be live).
	n.locks.ReleaseAll(ts)
}

func (gr *groupRuntime) applyAbort(e repl.Entry) {
	n := gr.n
	ts := txn.TS(e.TS)
	gr.pmu.Lock()
	p := gr.pendings[ts]
	delete(gr.pendings, ts)
	gr.pmu.Unlock()
	n.tmu.Lock()
	st := n.txns[ts]
	// Roll back a PREPARED native branch: this is how a deposed leader
	// (or a restarted node with recovery-reinstalled in-doubt state,
	// epoch 0) learns the abort fate it can no longer be told directly.
	// The epoch guard keeps a stale abort entry from killing a newer
	// attempt that reused the timestamp; unprepared natives are rolled
	// back by the live abort path or at deposition, never from the log.
	if st != nil && st.prepared && (st.epoch == e.Epoch || st.epoch == 0) {
		n.rollbackLocked(ts, st)
		n.tmu.Unlock()
		return
	}
	native := st != nil
	n.tmu.Unlock()
	// Release adopted in-doubt locks — but only when no native state
	// exists: a live retry attempt of this ts would own locks under the
	// same timestamp, and those must survive its predecessor's abort.
	if p != nil && p.adopted && !native {
		n.locks.ReleaseAll(ts)
	}
}

// applyRedo installs a committed transaction's after-images.
func (gr *groupRuntime) applyRedo(redo []repl.Mutation) {
	n := gr.n
	n.latch.Lock()
	defer n.latch.Unlock()
	for _, m := range redo {
		tbl := n.db.Table(m.Table)
		if tbl == nil {
			continue
		}
		if m.Row == nil {
			tbl.Delete(m.Key)
			continue
		}
		row := storage.Row(m.Row)
		if tbl.Has(m.Key) {
			if err := tbl.Update(m.Key, row); err != nil {
				panic("cluster: redo update failed: " + err.Error())
			}
		} else if err := tbl.Insert(row); err != nil {
			panic("cluster: redo insert failed: " + err.Error())
		}
	}
}

// A group snapshot image is one member's group-committed prefix, written
// with the row codec the node WAL uses (package codec):
//
//	checksum  crc32 (IEEE, little-endian) of everything after it
//	pendings  count; per pending: ts, epoch, mutation count, and per
//	          mutation: table, key, has-row (0 or 1), row
//	tables    count; per table: name, row count, rows
//
// Pendings come first so that rebuildPendings reads only the prefix it
// needs.
const snapHeader = 4

var (
	errSnapChecksum  = errors.New("checksum mismatch")
	errSnapMalformed = errors.New("truncated or malformed image")
)

// Snapshot serializes the node's applied state. Runs on the apply
// goroutine, so no entry is mid-application; native transactions still
// in flight (active or prepared) have their in-place writes backed out
// from the undo chain — the image must be exactly the group-committed
// prefix, because a follower restoring it has no way to undo anything.
func (gr *groupRuntime) Snapshot() []byte {
	// One allocation per image: the previous one's length, and room to grow.
	b := make([]byte, snapHeader, snapHeader+gr.snapLen+gr.snapLen/8)
	// Only the apply goroutine changes pendings, so reading them ahead of
	// the tables loses nothing.
	gr.pmu.Lock()
	b = binary.AppendUvarint(b, uint64(len(gr.pendings)))
	for ts, p := range gr.pendings {
		b = binary.AppendUvarint(b, uint64(ts))
		b = binary.AppendUvarint(b, p.epoch)
		b = binary.AppendUvarint(b, uint64(len(p.redo)))
		for _, m := range p.redo {
			b = codec.AppendString(b, m.Table)
			b = binary.AppendVarint(b, m.Key)
			if m.Row == nil {
				b = append(b, 0)
			} else {
				b = codec.AppendRow(append(b, 1), m.Row)
			}
		}
	}
	gr.pmu.Unlock()

	n := gr.n
	n.tmu.Lock()
	// The latch must cover the undo-chain read AND the table scan as one
	// critical section: executors append undo records and mutate rows
	// under the write latch (tmu → latch is the established order), so
	// reading the chains outside it races, and a write landing between
	// the two phases would appear in the image without its before-image.
	n.latch.RLock()
	// override[table][key] = the pre-transaction image (nil: key absent).
	// The FIRST undo record for a key holds the oldest before-image; keys
	// cannot repeat across transactions (exclusive locks).
	var override map[string]map[int64]storage.Row
	for _, st := range n.txns {
		for _, u := range st.undo {
			m := override[u.table]
			if m == nil {
				if override == nil {
					override = make(map[string]map[int64]storage.Row)
				}
				m = make(map[int64]storage.Row)
				override[u.table] = m
			}
			if _, seen := m[u.key]; !seen {
				m[u.key] = u.oldRow
			}
		}
	}
	names := n.db.TableNames()
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, tn := range names {
		tbl := n.db.Table(tn)
		ov := override[tn]
		rows := tbl.Len()
		for key, old := range ov {
			switch has := tbl.Has(key); {
			case old == nil && has:
				rows-- // inserted by an in-flight txn: not committed state
			case old != nil && !has:
				rows++ // deleted by an in-flight txn: resurrected below
			}
		}
		b = codec.AppendString(b, tn)
		b = binary.AppendUvarint(b, uint64(rows))
		tbl.ViewAll(func(key int64, row storage.Row) bool {
			if old, hit := ov[key]; hit {
				if old == nil {
					return true
				}
				row = old
			}
			b = codec.AppendRow(b, row)
			return true
		})
		for key, old := range ov {
			if old != nil && !tbl.Has(key) {
				b = codec.AppendRow(b, old)
			}
		}
	}
	n.latch.RUnlock()
	n.tmu.Unlock()
	binary.LittleEndian.PutUint32(b, crc32.ChecksumIEEE(b[snapHeader:]))
	gr.snapLen = len(b) - snapHeader
	return b
}

// openSnapshot checks an image's checksum and returns a reader over the
// pendings and tables behind it.
func openSnapshot(img []byte) (codec.Reader, error) {
	if len(img) < snapHeader || binary.LittleEndian.Uint32(img) != crc32.ChecksumIEEE(img[snapHeader:]) {
		return codec.Reader{}, errSnapChecksum
	}
	return codec.NewReader(img[snapHeader:]), nil
}

// readSnapPendings decodes the pendings of an image into dst.
func readSnapPendings(r *codec.Reader, dst map[txn.TS]*pendingPrepare) error {
	born := time.Now()
	for i := r.Count(3); i > 0; i-- { // ts, epoch, mutation count
		ts := txn.TS(r.Uvarint())
		epoch := r.Uvarint()
		redo := make([]repl.Mutation, r.Count(3)) // table, key, has-row
		for j := range redo {
			m := &redo[j]
			m.Table = r.Str()
			m.Key = r.Varint()
			if r.Bool() {
				m.Row = r.Row(nil)
			}
		}
		if r.Bad() {
			return errSnapMalformed
		}
		dst[ts] = &pendingPrepare{redo: redo, epoch: epoch, born: born}
	}
	if r.Bad() {
		return errSnapMalformed
	}
	return nil
}

// readSnapTables decodes the tables of an image, after its pendings,
// handing fn each row in a buffer that is reused for the next.
func readSnapTables(r *codec.Reader, fn func(table string, row storage.Row)) error {
	var row storage.Row
	for i := r.Count(2); i > 0 && !r.Bad(); i-- { // name, row count
		name := r.Str()
		for j := r.Count(1); j > 0; j-- {
			if row = r.Row(row); r.Bad() {
				return errSnapMalformed
			}
			fn(name, row)
		}
	}
	if r.Bad() || r.Len() != 0 {
		return errSnapMalformed
	}
	return nil
}

// Restore replaces the node's state with a leader snapshot (this
// follower's log was truncated past its position). The image is
// authoritative: every table is replaced, pendings are replaced, and
// any lingering native state is discarded WITHOUT undo — its effects
// (or their absence) are part of the image. The discarded transactions
// get abort records in the node WAL so a later crash-recovery does not
// reinstall them against the restored image.
func (gr *groupRuntime) Restore(snap []byte) {
	pendings := make(map[txn.TS]*pendingPrepare)
	r, err := openSnapshot(snap)
	if err == nil {
		err = readSnapPendings(&r, pendings)
	}
	if err != nil {
		panic("cluster: corrupt group snapshot: " + err.Error())
	}
	n := gr.n
	n.tmu.Lock()
	for ts := range n.txns {
		delete(n.txns, ts)
		n.wal.AppendAbort(uint64(ts))
		n.locks.ReleaseAll(ts)
	}
	n.latch.Lock()
	for _, tn := range n.db.TableNames() {
		tbl := n.db.Table(tn)
		keys := make([]int64, 0, tbl.Len())
		tbl.ScanAllKeys(func(key int64) bool {
			keys = append(keys, key)
			return true
		})
		for _, k := range keys {
			tbl.Delete(k)
		}
	}
	var cur string
	var tbl *storage.Table
	err = readSnapTables(&r, func(name string, row storage.Row) {
		if name != cur {
			cur, tbl = name, n.db.Table(name)
		}
		if tbl == nil {
			return
		}
		if err := tbl.Insert(row); err != nil {
			panic("cluster: snapshot restore insert failed: " + err.Error())
		}
	})
	n.latch.Unlock()
	n.tmu.Unlock()
	if err != nil {
		panic("cluster: corrupt group snapshot: " + err.Error())
	}
	gr.pmu.Lock()
	gr.pendings = pendings
	gr.pmu.Unlock()
}

func (gr *groupRuntime) RoleChange(role repl.Role, term uint64) {
	n := gr.n
	prev := gr.role
	gr.role = role
	switch role {
	case repl.Candidate:
		// Election start doubles as failure detection: the follower's
		// election timer fired without leader contact.
		gr.c.event("election-start", n.ID, gr.group, fmt.Sprintf("term=%d", term))
	case repl.Leader:
		gr.c.event("election-won", n.ID, gr.group, fmt.Sprintf("term=%d", term))
	default:
		if prev == repl.Leader {
			gr.c.event("deposed", n.ID, gr.group, fmt.Sprintf("term=%d", term))
		}
	}
	if role == repl.Leader {
		// Elected, not yet ready: re-take the locks of every inherited
		// in-doubt entry before any previous-term entries apply and long
		// before client traffic is accepted (leading is still false).
		gr.pmu.Lock()
		for ts, p := range gr.pendings {
			if p.adopted {
				continue
			}
			n.tmu.Lock()
			native := n.txns[ts] != nil
			n.tmu.Unlock()
			if !native {
				gr.adoptLocks(ts, p)
			}
		}
		gr.pmu.Unlock()
		return
	}
	if prev != repl.Leader {
		return
	}
	// Deposed. Stop admitting work, then roll back every UNPREPARED
	// native transaction: their writes exist only here, the new leader
	// knows nothing of them, and the coordinator's retry will re-execute
	// them against it. Prepared natives stay — they are durable promises
	// whose fate arrives through the log. The leaderGate excludes
	// concurrent statement execution, so the sweep sees a quiescent map.
	gr.leading.Store(false)
	n.leaderGate.Lock()
	n.tmu.Lock()
	for ts, st := range n.txns {
		if !st.prepared {
			n.rollbackLocked(ts, st)
		}
	}
	n.tmu.Unlock()
	n.leaderGate.Unlock()
	// Release adopted in-doubt locks: followers do not serve, so the
	// locks protect nothing here, and holding them would wedge the next
	// leadership's adoption if it lands on this node again. (Pendings
	// themselves stay, of course.)
	gr.pmu.Lock()
	for ts, p := range gr.pendings {
		if !p.adopted {
			continue
		}
		n.tmu.Lock()
		native := n.txns[ts] != nil
		n.tmu.Unlock()
		if !native {
			n.locks.ReleaseAll(ts)
		}
		p.adopted = false
	}
	gr.pmu.Unlock()
}

func (gr *groupRuntime) LeaderReady(term uint64) {
	gr.leading.Store(true)
	gr.c.event("leader-ready", gr.n.ID, gr.group, fmt.Sprintf("term=%d", term))
	gr.c.noteLeader(gr.group, gr.n.ID)
	select {
	case gr.kick <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------
// In-doubt resolver

// resolver is the leader-side termination protocol: it periodically
// sweeps the pending map and asks the coordinator's decision record for
// the fate of entries whose transaction is no longer in flight, then
// replicates that fate. This is what resolves in-doubt transactions
// inherited through failover (their coordinator can no longer reach the
// dead leader) and cleans up entries orphaned by races (e.g. a prepare
// whose transaction aborted between propose and apply).
func (gr *groupRuntime) resolver() {
	defer gr.wg.Done()
	period := gr.c.cfg.LockTimeout / 4
	if period < 2*time.Millisecond {
		period = 2 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-gr.stopCh:
			return
		case <-tick.C:
		case <-gr.kick:
		}
		if !gr.leading.Load() {
			continue
		}
		decide := gr.c.decider.Load()
		if decide == nil {
			continue
		}
		age := gr.c.cfg.LockTimeout / 8
		gr.pmu.Lock()
		var due []txn.TS
		for ts, p := range gr.pendings {
			if time.Since(p.born) > age {
				due = append(due, ts)
			}
		}
		gr.pmu.Unlock()
		sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
		for _, ts := range due {
			gr.resolveOne(ts, *decide)
			if gr.stopped.Load() || !gr.leading.Load() {
				break
			}
		}
	}
}

func (gr *groupRuntime) resolveOne(ts txn.TS, decide func(txn.TS, int) Decision) {
	switch decide(ts, gr.group) {
	case DecisionPending:
		return // transaction still in flight; its own protocol will finish
	case DecisionCommit:
		if idx, err := gr.rep.Propose(repl.Entry{Kind: repl.KCommit, TS: uint64(ts)}); err == nil {
			gr.rep.WaitApplied(idx, gr.c.cfg.LockTimeout)
		}
	case DecisionAbort:
		gr.pmu.Lock()
		p := gr.pendings[ts]
		gr.pmu.Unlock()
		epoch := uint64(0)
		if p != nil {
			epoch = p.epoch
		}
		if idx, err := gr.rep.Propose(repl.Entry{Kind: repl.KAbort, TS: uint64(ts), Epoch: epoch}); err == nil {
			gr.rep.WaitApplied(idx, gr.c.cfg.LockTimeout)
		}
	}
}

// ---------------------------------------------------------------------
// Transport

// replTransport carries group consensus RPCs over the cluster's
// simulated network: NetworkDelay each way, link faults from fault.go
// (drop, probabilistic drop, delay, reorder), and unreachability for
// crashed, recovering or paused targets (a paused node models a
// partitioned/stalled process — its consensus runtime answers nothing).
type replTransport struct{ c *Cluster }

func (t replTransport) deliver(from, to int) (*groupRuntime, bool) {
	if drop, delay := t.c.linkFault(from, to); drop {
		return nil, false
	} else if delay > 0 || t.c.cfg.NetworkDelay > 0 {
		time.Sleep(delay + t.c.cfg.NetworkDelay)
	}
	n := t.c.nodes[to]
	if n.getStatus() != statusRunning {
		return nil, false
	}
	gr := n.grp.Load()
	if gr == nil || gr.stopped.Load() {
		return nil, false
	}
	return gr, true
}

func (t replTransport) reply(from, to int) bool {
	if drop, delay := t.c.linkFault(to, from); drop {
		return false
	} else if delay > 0 || t.c.cfg.NetworkDelay > 0 {
		time.Sleep(delay + t.c.cfg.NetworkDelay)
	}
	return true
}

func (t replTransport) RequestVote(from, to int, req repl.VoteReq) (repl.VoteResp, bool) {
	gr, ok := t.deliver(from, to)
	if !ok {
		return repl.VoteResp{}, false
	}
	resp := gr.rep.HandleVote(req)
	return resp, t.reply(from, to)
}

func (t replTransport) AppendEntries(from, to int, req repl.AppendReq) (repl.AppendResp, bool) {
	gr, ok := t.deliver(from, to)
	if !ok {
		return repl.AppendResp{}, false
	}
	resp := gr.rep.HandleAppend(req)
	return resp, t.reply(from, to)
}

// ---------------------------------------------------------------------
// Cluster-level helpers

// WaitForLeaders blocks until every group has a ready leader among its
// running members (tests use it to reach a known-good cluster state).
func (c *Cluster) WaitForLeaders(timeout time.Duration) bool {
	if !c.replicated() {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for g := 0; g < c.NumGroups(); g++ {
			if c.groupLeaderNode(g) < 0 {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// LeaderOf returns the node id of group g's current leader — the member
// whose replica runtime actually reports leadership, not the
// coordinator's routing cache — or -1 when the group has none (mid
// election). Fault schedules and experiments use it to aim a crash at
// whoever leads right now.
func (c *Cluster) LeaderOf(g int) int { return c.groupLeaderNode(g) }

// groupLeaderNode scans group g for a running, ready leader (-1: none).
func (c *Cluster) groupLeaderNode(g int) int {
	for _, m := range c.GroupMembers(g) {
		n := c.nodes[m]
		if n.getStatus() != statusRunning {
			continue
		}
		if gr := n.grp.Load(); gr != nil && !gr.stopped.Load() && gr.rep.IsLeader() {
			return m
		}
	}
	return -1
}

// WaitReplicated blocks until the cluster is quiescently converged:
// every group has a ready leader whose log is fully committed and every
// RUNNING member has applied it all. Tests call it after Drain so
// replica images can be compared directly.
func (c *Cluster) WaitReplicated(timeout time.Duration) bool {
	if !c.replicated() {
		return true
	}
	deadline := time.Now().Add(timeout)
	for {
		ok := true
	groups:
		for g := 0; g < c.NumGroups(); g++ {
			l := c.groupLeaderNode(g)
			if l < 0 {
				ok = false
				break
			}
			st := c.nodes[l].grp.Load().rep.Status()
			if st.CommitIndex < st.LastIndex {
				ok = false
				break
			}
			for _, m := range c.GroupMembers(g) {
				n := c.nodes[m]
				if n.getStatus() != statusRunning {
					continue
				}
				gr := n.grp.Load()
				if gr == nil || gr.stopped.Load() || gr.rep.Status().Applied < st.LastIndex {
					ok = false
					break groups
				}
			}
		}
		if ok {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

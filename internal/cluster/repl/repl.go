// Package repl implements per-partition-group consensus replication:
// each partition of the cluster is served by a group of R replicas
// running a single replicated log in the style of Spinnaker
// (Paxos-per-partition-group with leader leases and follower catch-up),
// realised here with Raft-flavored mechanics — terms, randomized
// election timeouts, a quorum-ack append pipeline, leader leases for
// local reads, and snapshot/truncate log compaction.
//
// The package is deliberately small and self-contained: it knows nothing
// about SQL, locks or two-phase commit. The cluster layer feeds it
// opaque entries (2PC prepares with redo write-sets, commit/abort
// decisions) and consumes them back, in log order, through a
// StateMachine callback stream that also carries role transitions — so
// the consumer can serialize "I lost leadership, roll back my
// speculative state" against entry application without extra locking.
//
// Durability model: Durable is the part of a replica that survives a
// crash (the group log's "disk", like the node WAL's byte buffer). The
// Replica itself is volatile — Stop discards it, and a restart builds a
// fresh Replica around the surviving Durable.
package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"schism/internal/datum"
)

// Role is a replica's current role in its group.
type Role int32

// Roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	}
	return "invalid"
}

// EntryKind enumerates replicated log entry types. The group log carries
// 2PC protocol events, not raw statements: the leader executes SQL
// natively (locks, in-place writes, node WAL) and replicates the redo
// needed for followers to converge.
type EntryKind uint8

// Entry kinds.
const (
	// KPrepare carries a transaction's redo write-set (after-images) at
	// the instant of its yes vote. Followers buffer it until the fate
	// entry arrives; a new leader re-adopts it as an in-doubt transaction.
	KPrepare EntryKind = iota + 1
	// KCommit commits a transaction. For a prepared (2PC) transaction the
	// redo was already shipped by its KPrepare entry; for a single-group
	// transaction that skipped the prepare round the redo rides on the
	// commit entry itself.
	KCommit
	// KAbort aborts a prepared transaction: followers drop the buffered
	// redo, a deposed leader rolls back its native in-doubt state.
	KAbort
	// KNoop is the barrier a new leader commits to learn the commit index
	// of previous terms before serving (Raft §8's no-op entry).
	KNoop
)

func (k EntryKind) String() string {
	switch k {
	case KPrepare:
		return "prepare"
	case KCommit:
		return "commit"
	case KAbort:
		return "abort"
	case KNoop:
		return "noop"
	}
	return "invalid"
}

// Mutation is one redo row image: the row's full after-image (Row nil
// means the key was deleted). Applying a mutation is idempotent, so
// crash-interrupted application simply re-runs.
type Mutation struct {
	Table string
	Key   int64
	Row   []datum.D
}

// Entry is one replicated log entry. TS names the transaction; Epoch
// names the attempt (wait-die retries reuse TS), so a consumer can tell
// a stale abort entry from one addressing the live attempt.
type Entry struct {
	Term  uint64
	Kind  EntryKind
	TS    uint64
	Epoch uint64
	Redo  []Mutation
}

// Durable is the crash-surviving state of one replica: current term and
// vote (Raft's persistent pair), the log suffix, and the compaction
// snapshot that replaces the truncated prefix. The applied index is
// durable too, because the state machine it indexes (the node's storage
// image) is durable in this simulator.
type Durable struct {
	mu       sync.Mutex
	term     uint64
	votedFor int

	snapIndex uint64 // last index covered by snap (0: none)
	snapTerm  uint64
	snap      []byte // opaque StateMachine image at snapIndex

	entries []Entry // entries[i] has index snapIndex+1+i
	applied uint64  // last index applied to the local image
}

// NewDurable returns empty durable state for a fresh replica.
func NewDurable() *Durable { return &Durable{votedFor: -1} }

// Applied returns the last applied index (tests and restart logic).
func (d *Durable) Applied() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.applied
}

// Snapshot returns the compaction snapshot and the index it covers.
func (d *Durable) Snapshot() ([]byte, uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.snap, d.snapIndex
}

// Range calls fn for every retained entry in index order. Restart logic
// uses it to rebuild volatile bookkeeping (pending prepares) from the
// durable log.
func (d *Durable) Range(fn func(index uint64, e Entry) bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, e := range d.entries {
		if !fn(d.snapIndex+1+uint64(i), e) {
			return
		}
	}
}

// lastIndex/termAt/entriesFrom run under d.mu held by the caller.
func (d *Durable) lastIndex() uint64 { return d.snapIndex + uint64(len(d.entries)) }

func (d *Durable) termAt(index uint64) (uint64, bool) {
	if index == 0 {
		return 0, true
	}
	if index == d.snapIndex {
		return d.snapTerm, true
	}
	if index < d.snapIndex || index > d.lastIndex() {
		return 0, false
	}
	return d.entries[index-d.snapIndex-1].Term, true
}

func (d *Durable) entry(index uint64) Entry { return d.entries[index-d.snapIndex-1] }

// dropPrefix removes the first n retained entries (compaction, snapshot
// install). The suffix moves down inside the same backing array, so the
// log stops regrowing after every compaction; every reader copies
// entries out under d.mu, so none sees the move. Caller holds d.mu.
func (d *Durable) dropPrefix(n uint64) {
	d.truncate(uint64(copy(d.entries, d.entries[n:])))
}

// truncate keeps the first n retained entries and zeroes the vacated
// tail, so the Redo it referenced can be collected. Caller holds d.mu.
func (d *Durable) truncate(n uint64) {
	clear(d.entries[n:])
	d.entries = d.entries[:n]
}

// StateMachine consumes the replicated log. All methods are invoked from
// a single per-replica apply goroutine, in a strict order: entries in
// log order, with role transitions interleaved at the causally correct
// position (a RoleChange(Follower) is delivered before any entry that
// committed under the new leader; LeaderReady after every entry of
// previous terms has been applied).
type StateMachine interface {
	// Apply applies one committed entry. The applied index is persisted
	// after Apply returns, so Apply must leave durable effects (if any)
	// complete; re-application after a crash must be idempotent.
	Apply(index uint64, e Entry)
	// Snapshot serializes the applied state (including any buffered
	// prepare redo) for compaction and follower catch-up.
	Snapshot() []byte
	// Restore replaces the applied state with a snapshot image.
	Restore(snap []byte)
	// RoleChange reports a role transition in the apply stream.
	RoleChange(role Role, term uint64)
	// LeaderReady fires once a new leader's no-op barrier has been
	// committed and applied: all previous terms' entries are in, the
	// leader may serve.
	LeaderReady(term uint64)
}

// Transport delivers RPCs between replicas. Implementations return ok ==
// false when the message or its reply was dropped (crashed peer, network
// fault); the sender treats that like a timeout. Calls may block for the
// simulated network delay.
//
// AppendEntries is synchronous, and req.Entries is valid only during the
// call: the leader's sender for that peer reuses the slice's backing
// array for its next batch once the call returns. The receiving replica
// copies the entries into its own log before HandleAppend returns; an
// implementation that delivers later, or keeps the request, must copy
// them first.
type Transport interface {
	RequestVote(from, to int, req VoteReq) (VoteResp, bool)
	AppendEntries(from, to int, req AppendReq) (AppendResp, bool)
}

// VoteReq is the RequestVote RPC.
type VoteReq struct {
	Term                      uint64
	Candidate                 int
	LastLogIndex, LastLogTerm uint64
}

// VoteResp is the RequestVote reply.
type VoteResp struct {
	Term    uint64
	Granted bool
}

// AppendReq is the AppendEntries RPC (heartbeat, replication, and —
// when Snapshot is non-nil — snapshot installation for followers whose
// next index was truncated away).
type AppendReq struct {
	Term                uint64
	Leader              int
	PrevIndex, PrevTerm uint64
	Entries             []Entry
	Commit              uint64

	Snapshot            []byte
	SnapIndex, SnapTerm uint64
}

// AppendResp is the AppendEntries reply.
type AppendResp struct {
	Term    uint64
	Success bool
	// Match is the highest log index known replicated on the follower
	// (valid when Success).
	Match uint64
	// Hint is where the leader should back its next index up to on a
	// consistency-check failure.
	Hint uint64
}

// Config parameterises one replica.
type Config struct {
	// ID is this replica's node id; Peers lists every group member
	// (including ID).
	ID    int
	Peers []int
	// Heartbeat is the leader's append/heartbeat interval (default 8ms).
	Heartbeat time.Duration
	// ElectionTimeout is the base follower timeout; each timeout is drawn
	// uniformly from [T, 2T) (default 60ms). It is also the read-lease
	// window: a leader serves reads only while a quorum acked within it,
	// a follower only while it heard the leader within it. Leader
	// stickiness — votes are refused while the current leader was heard
	// within ElectionTimeout — keeps a lease-holding leader from being
	// deposed under its lease.
	ElectionTimeout time.Duration
	// CompactEntries bounds retained log length: once the applied prefix
	// exceeds it, the prefix is truncated into a snapshot (default 4096).
	CompactEntries int
	// Seed drives election jitter (deterministic schedules in tests).
	Seed int64
	// Bootstrap biases the first election: a replica with Bootstrap true
	// stands for election almost immediately so a fresh group converges
	// on member 0 without a randomized-timeout race.
	Bootstrap bool
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 8 * time.Millisecond
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 60 * time.Millisecond
	}
	if c.CompactEntries <= 0 {
		c.CompactEntries = 4096
	}
	return c
}

// tick is the tick loop's period: a quarter heartbeat, at least 0.5 ms.
func (c Config) tick() time.Duration { return max(c.Heartbeat/4, 500*time.Microsecond) }

// Errors.
var (
	// ErrNotLeader: Propose called on a non-leader (or a leader that has
	// not yet committed its no-op barrier).
	ErrNotLeader = errors.New("repl: not leader")
	// ErrStopped: the replica was stopped (crash or shutdown) while the
	// caller waited; the outcome of the waited-on entry is unknown.
	ErrStopped = errors.New("repl: replica stopped")
	// ErrTimeout: a Wait bound expired; the entry may still commit later.
	ErrTimeout = errors.New("repl: wait timeout")
)

// Status is a point-in-time snapshot of a replica (tests, debugging and
// the cluster's leader cache).
type Status struct {
	ID          int
	Term        uint64
	Role        Role
	Leader      int
	LastIndex   uint64
	CommitIndex uint64
	Applied     uint64
	Ready       bool
	// Lifetime counters, monotone across role changes: elections this
	// replica started, elections it won, and lease renewals it granted
	// as a follower (valid leader contacts). Observability polls these.
	Elections     uint64
	LeaderWins    uint64
	LeaseRenewals uint64
}

// applyEvent is one item of the ordered apply stream.
type applyEvent struct {
	// kind: 0 entry (implicit via index>0), 1 role change, 2 ready, 3 restore
	kind    int
	role    Role
	term    uint64
	snap    []byte
	snapIdx uint64
}

const (
	evRole    = 1
	evReady   = 2
	evRestore = 3
)

// Replica is one group member's consensus runtime.
type Replica struct {
	cfg Config
	d   *Durable
	sm  StateMachine
	tr  Transport

	mu          sync.Mutex
	cond        *sync.Cond // broadcast: commit/applied/role/stop changes
	role        Role
	leader      int
	commitIndex uint64
	applied     uint64 // volatile mirror of d.applied
	ready       bool
	readyIndex  uint64 // index of this term's no-op barrier
	// timedWaits counts waiters with a bound; while it is non-zero the
	// tick loop broadcasts cond every tick so they can see their deadline.
	timedWaits int

	nextIndex  map[int]uint64
	matchIndex map[int]uint64
	votes      map[int]bool

	// kicks holds one capacity-1 channel per peer, read by that peer's
	// sender loop: a send wakes the loop, and a kick that lands while an
	// RPC is in flight stays buffered, so nothing proposed is missed.
	kicks []chan struct{}
	stopc chan struct{} // closed by Stop: senders exit

	lastHeard    time.Time // follower: last valid leader contact
	ackTime      map[int]time.Time
	electionDue  time.Time
	lastBcast    time.Time
	quorumFailAt time.Time // leader: lease base when quorum unreachable

	events []applyEvent // ordered apply stream (role/ready/restore markers)

	elections     atomic.Uint64 // elections started
	leaderWins    atomic.Uint64 // elections won
	leaseRenewals atomic.Uint64 // follower lease renewals (valid leader contact)

	rng     *rand.Rand
	stopped bool
	wg      sync.WaitGroup
}

// Start builds and starts a replica around durable state d. The caller
// owns stopping it via Stop; durable state is never discarded here.
func Start(cfg Config, d *Durable, sm StateMachine, tr Transport) *Replica {
	cfg = cfg.withDefaults()
	r := &Replica{
		cfg:    cfg,
		d:      d,
		sm:     sm,
		tr:     tr,
		leader: -1,
		rng:    rand.New(rand.NewSource(cfg.Seed ^ (int64(cfg.ID+1) * 0x5851f42d4c957f2d))),
		stopc:  make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	d.mu.Lock()
	r.applied = d.applied
	// commitIndex is volatile; the applied prefix is a safe lower bound
	// (nothing is applied before it commits).
	r.commitIndex = d.applied
	d.mu.Unlock()
	r.lastHeard = time.Now()
	r.resetElectionTimer(cfg.Bootstrap)
	// Every kick channel exists before the tick loop starts: it can win
	// an election and broadcast at once.
	for _, p := range cfg.Peers {
		if p == cfg.ID {
			continue
		}
		kick := make(chan struct{}, 1)
		r.kicks = append(r.kicks, kick)
		r.wg.Add(1)
		go r.sendLoop(p, kick)
	}
	r.wg.Add(2)
	go r.tickLoop()
	go r.applyLoop()
	return r
}

// Stop halts the replica's goroutines without touching durable state:
// this is what a crash does to the consensus runtime. Wait/Propose
// callers are released with ErrStopped.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	close(r.stopc)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// resetElectionTimer draws the next election deadline. Caller holds mu
// (or is the constructor).
func (r *Replica) resetElectionTimer(immediate bool) {
	t := r.cfg.ElectionTimeout
	if immediate {
		// Bootstrap bias: stand almost immediately (but after a beat, so
		// Start returns and peers exist).
		r.electionDue = time.Now().Add(time.Millisecond + time.Duration(r.rng.Int63n(int64(time.Millisecond))))
		return
	}
	r.electionDue = time.Now().Add(t + time.Duration(r.rng.Int63n(int64(t))))
}

func (r *Replica) quorum() int { return len(r.cfg.Peers)/2 + 1 }

// tickLoop drives heartbeats (leader) and election timeouts (others),
// and is the clock of timed waits: while any is pending, every tick
// wakes the waiters so each can check its own deadline.
func (r *Replica) tickLoop() {
	defer r.wg.Done()
	tick := r.cfg.tick()
	for {
		time.Sleep(tick)
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		now := time.Now()
		switch r.role {
		case Leader:
			if now.Sub(r.lastBcast) >= r.cfg.Heartbeat {
				r.lastBcast = now
				r.broadcastLocked()
			}
		default:
			if now.After(r.electionDue) {
				r.startElectionLocked()
			}
		}
		if r.timedWaits > 0 {
			r.cond.Broadcast()
		}
		r.mu.Unlock()
	}
}

// startElectionLocked begins a candidacy. Caller holds mu.
func (r *Replica) startElectionLocked() {
	r.elections.Add(1)
	r.d.mu.Lock()
	r.d.term++
	r.d.votedFor = r.cfg.ID
	term := r.d.term
	lastIdx := r.d.lastIndex()
	lastTerm, _ := r.d.termAt(lastIdx)
	r.d.mu.Unlock()

	r.becomeLocked(Candidate, term, -1)
	r.votes = map[int]bool{r.cfg.ID: true}
	r.resetElectionTimer(false)

	req := VoteReq{Term: term, Candidate: r.cfg.ID, LastLogIndex: lastIdx, LastLogTerm: lastTerm}
	for _, p := range r.cfg.Peers {
		if p == r.cfg.ID {
			continue
		}
		peer := p
		go func() {
			resp, ok := r.tr.RequestVote(r.cfg.ID, peer, req)
			if !ok {
				return
			}
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.stopped {
				return
			}
			if resp.Term > r.currentTerm() {
				r.stepDownLocked(resp.Term, -1)
				return
			}
			if r.role != Candidate || r.currentTerm() != term || !resp.Granted {
				return
			}
			r.votes[peer] = true
			if len(r.votes) >= r.quorum() {
				r.becomeLeaderLocked(term)
			}
		}()
	}
}

func (r *Replica) currentTerm() uint64 {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	return r.d.term
}

// becomeLocked transitions role, emitting the change into the apply
// stream. Caller holds mu.
func (r *Replica) becomeLocked(role Role, term uint64, leader int) {
	changed := r.role != role
	r.role = role
	r.leader = leader
	if role != Leader {
		r.ready = false
	}
	if changed {
		r.events = append(r.events, applyEvent{kind: evRole, role: role, term: term})
		r.cond.Broadcast()
	}
}

// stepDownLocked adopts a higher term and reverts to follower.
func (r *Replica) stepDownLocked(term uint64, leader int) {
	r.d.mu.Lock()
	if term > r.d.term {
		r.d.term = term
		r.d.votedFor = -1
	}
	cur := r.d.term
	r.d.mu.Unlock()
	r.becomeLocked(Follower, cur, leader)
	r.resetElectionTimer(false)
}

// becomeLeaderLocked wins an election: initialise replication state and
// append the no-op barrier whose commit marks readiness.
func (r *Replica) becomeLeaderLocked(term uint64) {
	r.leaderWins.Add(1)
	r.becomeLocked(Leader, term, r.cfg.ID)
	r.nextIndex = make(map[int]uint64)
	r.matchIndex = make(map[int]uint64)
	r.ackTime = map[int]time.Time{r.cfg.ID: time.Now()}

	r.d.mu.Lock()
	last := r.d.lastIndex()
	r.d.entries = append(r.d.entries, Entry{Term: term, Kind: KNoop})
	barrier := r.d.lastIndex()
	r.d.mu.Unlock()
	for _, p := range r.cfg.Peers {
		r.nextIndex[p] = last + 1
	}
	r.readyIndex = barrier
	r.matchIndex[r.cfg.ID] = barrier
	r.lastBcast = time.Now()
	r.broadcastLocked()
}

// Propose appends an entry to the leader's log and starts replicating
// it, returning its index. ErrNotLeader if this replica is not the
// ready leader.
func (r *Replica) Propose(e Entry) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return 0, ErrStopped
	}
	if r.role != Leader || !r.ready {
		return 0, ErrNotLeader
	}
	r.d.mu.Lock()
	e.Term = r.d.term
	r.d.entries = append(r.d.entries, e)
	idx := r.d.lastIndex()
	r.d.mu.Unlock()
	r.matchIndex[r.cfg.ID] = idx
	r.lastBcast = time.Now()
	r.broadcastLocked()
	return idx, nil
}

// broadcastLocked wakes every peer's sender loop for an append or
// heartbeat. It never blocks: a sender already holding a kick will send
// whatever the log holds by the time it runs. Caller holds mu.
func (r *Replica) broadcastLocked() {
	for _, kick := range r.kicks {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
}

// sendLoop is the one goroutine that talks AppendEntries to peer, so
// there is never more than one RPC in flight to it. Each kick runs
// replicateTo until the peer is caught up (or the send failed), then the
// loop parks. batch is the loop's reusable entry buffer.
func (r *Replica) sendLoop(peer int, kick <-chan struct{}) {
	defer r.wg.Done()
	var batch []Entry
	for {
		select {
		case <-r.stopc:
			return
		case <-kick:
		}
		for r.replicateTo(peer, &batch) {
		}
	}
}

// replicateTo sends one append (or snapshot) RPC to peer, carrying its
// entries in *batch, and integrates the reply. It reports whether
// another RPC should follow at once: the peer is behind the log end, or
// refused the consistency check and needs an earlier batch.
func (r *Replica) replicateTo(peer int, batch *[]Entry) bool {
	r.mu.Lock()
	if r.stopped || r.role != Leader {
		r.mu.Unlock()
		return false
	}
	r.d.mu.Lock()
	term := r.d.term
	ni := r.nextIndex[peer]
	if ni == 0 {
		ni = 1
	}
	var req AppendReq
	if ni <= r.d.snapIndex {
		// The prefix the peer needs was truncated: ship the snapshot.
		req = AppendReq{
			Term: term, Leader: r.cfg.ID,
			Snapshot: r.d.snap, SnapIndex: r.d.snapIndex, SnapTerm: r.d.snapTerm,
			Commit: r.commitIndex,
		}
	} else {
		prevTerm, _ := r.d.termAt(ni - 1)
		lo := ni - r.d.snapIndex - 1
		hi := min(uint64(len(r.d.entries)), lo+256)
		*batch = append((*batch)[:0], r.d.entries[lo:hi]...)
		req = AppendReq{
			Term: term, Leader: r.cfg.ID,
			PrevIndex: ni - 1, PrevTerm: prevTerm,
			Entries: *batch, Commit: r.commitIndex,
		}
	}
	r.d.mu.Unlock()
	r.mu.Unlock()

	resp, ok := r.tr.AppendEntries(r.cfg.ID, peer, req)
	// The peer copied what it keeps; drop the buffer's Redo references so
	// a compacted prefix is not held alive by the next, shorter batch.
	clear(*batch)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped || !ok {
		return false
	}
	if resp.Term > term {
		r.stepDownLocked(resp.Term, -1)
		return false
	}
	if r.role != Leader || r.currentTerm() != term {
		return false
	}
	r.ackTime[peer] = time.Now()
	if !resp.Success {
		r.nextIndex[peer] = max(resp.Hint, 1)
		return true
	}
	if resp.Match > r.matchIndex[peer] {
		r.matchIndex[peer] = resp.Match
	}
	r.nextIndex[peer] = resp.Match + 1
	r.advanceCommitLocked(term)
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	return r.nextIndex[peer] <= r.d.lastIndex()
}

// advanceCommitLocked moves the commit index to the quorum-replicated
// watermark — counting only current-term entries, the Raft rule that
// makes a quorum-acked prepare survive any future election. Caller
// holds mu.
func (r *Replica) advanceCommitLocked(term uint64) {
	// It runs on every append ack: a group of up to eight sorts on the
	// stack.
	var buf [8]uint64
	matches := buf[:0]
	if len(r.cfg.Peers) > len(buf) {
		matches = make([]uint64, 0, len(r.cfg.Peers))
	}
	for _, p := range r.cfg.Peers {
		matches = append(matches, r.matchIndex[p])
	}
	slices.Sort(matches)
	// The quorum-th highest match: replicated on a quorum of members.
	candidate := matches[len(matches)-r.quorum()]
	if candidate <= r.commitIndex {
		return
	}
	r.d.mu.Lock()
	t, ok := r.d.termAt(candidate)
	r.d.mu.Unlock()
	if !ok || t != term {
		return
	}
	r.commitIndex = candidate
	r.cond.Broadcast()
}

// HandleVote serves a RequestVote RPC.
func (r *Replica) HandleVote(req VoteReq) VoteResp {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.d.mu.Lock()
	term := r.d.term
	r.d.mu.Unlock()
	if req.Term > term {
		r.stepDownLocked(req.Term, -1)
		term = req.Term
	}
	resp := VoteResp{Term: term}
	if req.Term < term {
		return resp
	}
	// Leader stickiness (lease safety): while this replica heard a live
	// leader within the minimum election timeout, it refuses to vote —
	// so a leader serving lease reads cannot be deposed under its lease.
	if r.leader >= 0 && r.leader != req.Candidate &&
		time.Since(r.lastHeard) < r.cfg.ElectionTimeout {
		return resp
	}
	r.d.mu.Lock()
	lastIdx := r.d.lastIndex()
	lastTerm, _ := r.d.termAt(lastIdx)
	upToDate := req.LastLogTerm > lastTerm ||
		(req.LastLogTerm == lastTerm && req.LastLogIndex >= lastIdx)
	canVote := r.d.votedFor == -1 || r.d.votedFor == req.Candidate
	if upToDate && canVote {
		r.d.votedFor = req.Candidate
		resp.Granted = true
	}
	r.d.mu.Unlock()
	if resp.Granted {
		r.resetElectionTimer(false)
	}
	return resp
}

// HandleAppend serves an AppendEntries (or piggybacked snapshot) RPC.
func (r *Replica) HandleAppend(req AppendReq) AppendResp {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.d.mu.Lock()
	term := r.d.term
	r.d.mu.Unlock()
	resp := AppendResp{Term: term}
	if req.Term < term {
		return resp
	}
	if req.Term > term || r.role != Follower || r.leader != req.Leader {
		r.stepDownLocked(req.Term, req.Leader)
		resp.Term = req.Term
	}
	r.leader = req.Leader
	r.lastHeard = time.Now()
	r.leaseRenewals.Add(1)
	r.resetElectionTimer(false)

	if req.Snapshot != nil {
		return r.installSnapshotLocked(req)
	}

	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	// Consistency check: our log must contain PrevIndex with PrevTerm.
	if req.PrevIndex > 0 {
		t, ok := r.d.termAt(req.PrevIndex)
		if !ok || t != req.PrevTerm {
			// Back the leader up to our log end (or past the mismatch).
			hint := r.d.lastIndex() + 1
			if req.PrevIndex <= r.d.lastIndex() {
				hint = req.PrevIndex
				if hint <= r.d.snapIndex+1 {
					hint = r.d.snapIndex + 1
				}
			}
			resp.Hint = hint
			return resp
		}
	}
	// Append, truncating any conflicting suffix.
	idx := req.PrevIndex
	for i, e := range req.Entries {
		idx = req.PrevIndex + 1 + uint64(i)
		if idx <= r.d.snapIndex {
			continue // already snapshotted (stale retransmit)
		}
		if idx <= r.d.lastIndex() {
			if t, _ := r.d.termAt(idx); t == e.Term {
				continue
			}
			// Conflict: drop idx and everything after (uncommitted by
			// definition — committed entries never conflict).
			r.d.truncate(idx - r.d.snapIndex - 1)
		}
		r.d.entries = append(r.d.entries, e)
	}
	resp.Success = true
	resp.Match = req.PrevIndex + uint64(len(req.Entries))
	if resp.Match > r.d.lastIndex() {
		resp.Match = r.d.lastIndex()
	}
	if req.Commit > r.commitIndex {
		ci := req.Commit
		if last := r.d.lastIndex(); ci > last {
			ci = last
		}
		if ci > r.commitIndex {
			r.commitIndex = ci
			r.cond.Broadcast()
		}
	}
	return resp
}

// installSnapshotLocked replaces the follower's truncated prefix with
// the leader's snapshot. The state-machine restore itself happens in
// the apply stream, ordered against Apply calls. Caller holds mu.
func (r *Replica) installSnapshotLocked(req AppendReq) AppendResp {
	resp := AppendResp{Term: req.Term}
	r.d.mu.Lock()
	if req.SnapIndex <= r.d.applied {
		// Stale: we already have (and applied) everything it covers.
		resp.Success = true
		resp.Match = r.d.applied
		r.d.mu.Unlock()
		return resp
	}
	// Keep any log suffix past the snapshot; drop the rest.
	r.d.dropPrefix(min(req.SnapIndex, r.d.lastIndex()) - r.d.snapIndex)
	r.d.snap = req.Snapshot
	r.d.snapIndex = req.SnapIndex
	r.d.snapTerm = req.SnapTerm
	r.d.mu.Unlock()

	r.events = append(r.events, applyEvent{kind: evRestore, snap: req.Snapshot, snapIdx: req.SnapIndex})
	if req.SnapIndex > r.commitIndex {
		r.commitIndex = req.SnapIndex
	}
	if req.Commit > r.commitIndex {
		r.d.mu.Lock()
		last := r.d.lastIndex()
		r.d.mu.Unlock()
		if req.Commit <= last {
			r.commitIndex = req.Commit
		}
	}
	r.cond.Broadcast()
	resp.Success = true
	resp.Match = req.SnapIndex
	return resp
}

// applyLoop is the single consumer of the ordered apply stream: role
// transitions and committed entries, in causal order. It owns all
// StateMachine calls and the durable applied index.
func (r *Replica) applyLoop() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		for !r.stopped && len(r.events) == 0 && r.applied >= r.commitIndex {
			r.cond.Wait()
		}
		if r.stopped {
			r.mu.Unlock()
			return
		}
		// Marker events (role changes, restores) are ordered before any
		// entries that committed after them.
		if len(r.events) > 0 {
			ev := r.events[0]
			r.events = r.events[1:]
			r.mu.Unlock()
			switch ev.kind {
			case evRole:
				r.sm.RoleChange(ev.role, ev.term)
			case evReady:
				r.sm.LeaderReady(ev.term)
			case evRestore:
				r.mu.Lock()
				stale := ev.snapIdx <= r.applied
				r.mu.Unlock()
				if !stale {
					r.sm.Restore(ev.snap)
					r.d.mu.Lock()
					r.d.applied = ev.snapIdx
					r.d.mu.Unlock()
					r.mu.Lock()
					r.applied = ev.snapIdx
					r.cond.Broadcast()
					r.mu.Unlock()
				}
			}
			continue
		}
		idx := r.applied + 1
		r.d.mu.Lock()
		if idx <= r.d.snapIndex || idx > r.d.lastIndex() {
			// The gap below snapIndex is filled by a pending restore event;
			// nothing to do here.
			r.d.mu.Unlock()
			r.mu.Unlock()
			continue
		}
		e := r.d.entry(idx)
		r.d.mu.Unlock()
		wasReady := r.ready
		barrier := r.role == Leader && !r.ready && idx >= r.readyIndex
		r.mu.Unlock()

		r.sm.Apply(idx, e)
		r.d.mu.Lock()
		r.d.applied = idx
		r.d.mu.Unlock()

		r.mu.Lock()
		r.applied = idx
		if barrier && r.role == Leader && !wasReady {
			r.ready = true
			r.mu.Unlock()
			r.sm.LeaderReady(e.Term)
			r.mu.Lock()
		}
		r.cond.Broadcast()
		r.mu.Unlock()

		r.maybeCompact()
	}
}

// maybeCompact truncates the applied prefix into a snapshot once the
// retained log exceeds the configured bound.
func (r *Replica) maybeCompact() {
	r.d.mu.Lock()
	applied := r.d.applied
	tooLong := applied > r.d.snapIndex &&
		int(applied-r.d.snapIndex) > r.cfg.CompactEntries
	r.d.mu.Unlock()
	if !tooLong {
		return
	}
	// Serialize state as of the applied index. Snapshot() runs on the
	// apply goroutine, so the image is exactly the applied prefix.
	snap := r.sm.Snapshot()
	r.d.mu.Lock()
	if applied <= r.d.snapIndex {
		r.d.mu.Unlock()
		return
	}
	st, _ := r.d.termAt(applied)
	r.d.dropPrefix(applied - r.d.snapIndex)
	r.d.snap = snap
	r.d.snapIndex = applied
	r.d.snapTerm = st
	r.d.mu.Unlock()
}

// WaitCommitted blocks until index is committed (quorum-replicated in
// the leader's current term), the bound expires, or the replica stops.
func (r *Replica) WaitCommitted(index uint64, bound time.Duration) error {
	return r.waitFor(&r.commitIndex, index, bound)
}

// WaitApplied blocks until the local state machine has applied index.
func (r *Replica) WaitApplied(index uint64, bound time.Duration) error {
	return r.waitFor(&r.applied, index, bound)
}

// waitFor blocks until *mark (a watermark guarded by mu) reaches index.
// cond has no timed wait: the waiter registers in timedWaits, and the
// tick loop then broadcasts every tick, so the wait returns ErrTimeout
// no earlier than bound and at most about one tick after it.
func (r *Replica) waitFor(mark *uint64, index uint64, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	r.mu.Lock()
	defer r.mu.Unlock()
	if *mark >= index {
		return nil
	}
	r.timedWaits++
	defer func() { r.timedWaits-- }()
	for {
		if *mark >= index {
			return nil
		}
		if r.stopped {
			return ErrStopped
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("%w after %v", ErrTimeout, bound)
		}
		r.cond.Wait()
	}
}

// IsLeader reports whether this replica is the group's ready leader.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == Leader && r.ready && !r.stopped
}

// Leader returns the best-known leader id (-1 unknown).
func (r *Replica) Leader() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.role == Leader {
		return r.cfg.ID
	}
	return r.leader
}

// LeaseValid reports whether this replica may serve a local read: a
// leader needs a quorum ack within the lease window, a follower a
// leader contact within it. The lease is sound because it is
// ElectionTimeout long and vote stickiness keeps a new leader from being
// elected while the old one was heard within ElectionTimeout.
func (r *Replica) LeaseValid() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return false
	}
	if r.role == Leader {
		if !r.ready {
			return false
		}
		// The quorum-th most recent ack bounds when a majority last
		// confirmed this leadership.
		acks := make([]time.Time, 0, len(r.cfg.Peers))
		for _, p := range r.cfg.Peers {
			if p == r.cfg.ID {
				acks = append(acks, time.Now())
				continue
			}
			acks = append(acks, r.ackTime[p])
		}
		sort.Slice(acks, func(i, j int) bool { return acks[i].After(acks[j]) })
		return time.Since(acks[r.quorum()-1]) < r.cfg.ElectionTimeout
	}
	return r.leader >= 0 && time.Since(r.lastHeard) < r.cfg.ElectionTimeout
}

// Status snapshots the replica's visible state.
func (r *Replica) Status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	return Status{
		ID:            r.cfg.ID,
		Term:          r.d.term,
		Role:          r.role,
		Leader:        r.leader,
		LastIndex:     r.d.lastIndex(),
		CommitIndex:   r.commitIndex,
		Applied:       r.d.applied,
		Ready:         r.ready,
		Elections:     r.elections.Load(),
		LeaderWins:    r.leaderWins.Load(),
		LeaseRenewals: r.leaseRenewals.Load(),
	}
}

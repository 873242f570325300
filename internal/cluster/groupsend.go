package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"schism/internal/obs"
	"schism/internal/sqlparse"
)

// This file is the coordinator's routing layer for a replicated cluster
// (ReplicationFactor > 1): fanout targets are GROUP ids, and each group
// send resolves the group to a member — the leader for anything that
// creates or decides transaction state, any lease-valid replica for
// plain reads — chasing redirect hints through leader changes so the
// client keeps making progress while a group fails over.

// fanoutGroups is fanout on group targets. Single-target SELECTs against
// groups the transaction has not written are follower-readable: they
// take no locks and do not make the group a 2PC participant.
func (t *Txn) fanoutGroups(kind reqKind, pl *plan, targets []int) []response {
	followerRead := false
	if kind == reqExec {
		if sel, ok := pl.stmt.(*sqlparse.Select); ok && !sel.ForUpdate &&
			len(targets) == 1 && !t.wrote[targets[0]] {
			followerRead = true
		}
		if !followerRead {
			// Mark participation BEFORE sending (like the flat fanout): a
			// statement that fails after taking locks still needs the abort
			// fan-out to reach its group.
			for _, g := range targets {
				t.touched[g] = true
				if pl.write {
					t.wrote[g] = true
				}
			}
		}
	}
	out := make([]response, len(targets))
	if len(targets) == 1 {
		out[0] = t.sendGroup(kind, pl, targets[0], followerRead)
		return out
	}
	var wg sync.WaitGroup
	for i, g := range targets {
		wg.Add(1)
		go func(i, g int) {
			defer wg.Done()
			out[i] = t.sendGroup(kind, pl, g, false)
		}(i, g)
	}
	wg.Wait()
	return out
}

func (t *Txn) sendGroup(kind reqKind, pl *plan, g int, followerRead bool) response {
	switch kind {
	case reqExec:
		if followerRead {
			return t.readReplica(pl, g)
		}
		return t.execOnLeader(pl, g)
	case reqPrepare:
		return t.prepareGroup(g)
	case reqCommit:
		return t.commitGroup(g)
	default:
		return t.abortGroup(g)
	}
}

// sendNode performs one bounded request/reply exchange with a member.
func (t *Txn) sendNode(kind reqKind, pl *plan, nid int, replRead, cont bool, bound time.Duration) response {
	c := t.co.c
	reply := make(chan response, 1)
	var sp *obs.Span
	if t.span != nil {
		sp = t.span.Child(reqName(kind))
		sp.Annotate("node %d", nid)
		defer sp.Finish()
	}
	r := &request{kind: kind, ts: t.ts, epoch: t.epoch, plan: pl,
		capture: t.capture != nil, replRead: replRead, twoPhase: t.twoPhase,
		cont: cont, reply: reply, trace: sp}
	c.nodes[nid].send(r)
	if bound <= 0 {
		resp := <-reply
		waitNet(resp.sentAt, c.cfg.NetworkDelay)
		return resp
	}
	timer := time.NewTimer(bound)
	defer timer.Stop()
	select {
	case resp := <-reply:
		waitNet(resp.sentAt, c.cfg.NetworkDelay)
		return resp
	case <-timer.C:
		return response{err: fmt.Errorf("cluster: node %d: %w", nid, ErrRPCTimeout)}
	}
}

// served / markServed access the group -> executing-member pin under smu
// (multi-target fan-outs run sendGroup concurrently).
func (t *Txn) served(g int) (int, bool) {
	t.smu.Lock()
	defer t.smu.Unlock()
	nid, ok := t.servedBy[g]
	return nid, ok
}

func (t *Txn) markServed(g, nid int) {
	t.smu.Lock()
	t.touched[g] = true
	t.servedBy[g] = nid
	t.smu.Unlock()
}

// redirected is true for the errors that mean "this member refused
// before doing anything; another member might serve you".
func redirected(err error) bool {
	return errors.Is(err, ErrNodeDown) || errors.Is(err, ErrNotLeader) ||
		errors.Is(err, ErrLeaseExpired)
}

// nextMember follows a redirect: the hint embedded in the error when it
// names a different member of this group, the cluster's leader cache
// when that moved, and plain rotation otherwise.
func (t *Txn) nextMember(g, cur int, err error) int {
	c := t.co.c
	var hint *LeaderHintError
	if errors.As(err, &hint) && hint.Leader >= 0 && hint.Leader != cur && c.GroupOf(hint.Leader) == g {
		c.noteLeader(g, hint.Leader)
		return hint.Leader
	}
	if l := c.GroupLeader(g); l != cur {
		return l
	}
	members := c.GroupMembers(g)
	for i, m := range members {
		if m == cur {
			return members[(i+1)%len(members)]
		}
	}
	return members[0]
}

// execOnLeader executes a statement on the member currently leading
// group g, chasing redirects through a failover within a bounded
// budget. Once a member has executed for this transaction the statement
// stream is pinned to it — its lock table holds our locks and its undo
// log our images. If that member is lost (crash, or deposition swept
// its unprepared state), earlier statements' effects are gone and the
// only sound move is failing the attempt so the whole transaction
// retries; the cont flag makes a restarted or re-elected member detect
// the loss instead of silently starting fresh.
func (t *Txn) execOnLeader(pl *plan, g int) response {
	c := t.co.c
	target, pinned := t.served(g)
	if !pinned {
		target = c.GroupLeader(g)
	}
	elect := c.cfg.ReplElection
	if elect <= 0 {
		elect = 60 * time.Millisecond
	}
	deadline := time.Now().Add(20 * elect) // a few failovers' worth
	for {
		resp := t.sendNode(reqExec, pl, target, false, pinned, 0)
		if resp.err == nil || !redirected(resp.err) {
			// Served (or executed and failed — lock conflict, SQL error —
			// in which case the member may hold doomed state for us).
			t.markServed(g, target)
			return resp
		}
		if pinned {
			return response{err: fmt.Errorf(
				"cluster: group %d: executing member %d lost mid-transaction: %w",
				g, target, ErrNodeDown)}
		}
		if time.Now().After(deadline) {
			return resp
		}
		target = t.nextMember(g, target, resp.err)
		time.Sleep(2 * time.Millisecond)
	}
}

// readReplica serves a single-target SELECT from a group replica:
// sticky per transaction for locality, re-seeded past members that are
// down, deposed-and-dirty, or lease-expired, with the leader's locked
// path as the final fallback (which then makes the group a participant
// like any locked read — the response's locked flag reports whether the
// serving member took locks, since the sticky pick may happen to be the
// leader).
func (t *Txn) readReplica(pl *plan, g int) response {
	c := t.co.c
	members := c.GroupMembers(g)
	t.smu.Lock()
	nid, ok := t.sticky[g]
	t.smu.Unlock()
	if !ok {
		nid = members[t.rng.intn(len(members))]
	}
	for try := 0; try <= len(members); try++ {
		if c.nodes[nid].down() {
			nid = members[t.rng.intn(len(members))] // re-seed stickiness
			continue
		}
		resp := t.sendNode(reqExec, pl, nid, true, false, 0)
		if resp.err == nil {
			if resp.locked {
				t.markServed(g, nid) // the leader served it under locks
			}
			t.smu.Lock()
			t.sticky[g] = nid
			t.smu.Unlock()
			return resp
		}
		if !redirected(resp.err) {
			return resp
		}
		nid = members[t.rng.intn(len(members))] // re-seed stickiness
	}
	// No replica could serve it lock-free; read through the leader.
	return t.execOnLeader(pl, g)
}

// prepareGroup sends the 2PC vote request to the member that executed
// this transaction's statements — only it holds the write-set to
// replicate and promise. No redirects: any refusal is a no vote, and
// presumed abort makes aborting always safe.
func (t *Txn) prepareGroup(g int) response {
	c := t.co.c
	target, ok := t.served(g)
	if !ok {
		target = c.GroupLeader(g)
	}
	return t.sendNode(reqPrepare, nil, target, false, false, c.cfg.RPCTimeout)
}

// commitGroup delivers a commit. A single-group commit must land on the
// executing member (its refusal means the writes died; the transaction
// retries whole). A 2PC decision is sealed by the coordinator's record
// and the prepare entry is quorum-replicated in the group log, so it
// may be delivered through whichever member currently leads.
func (t *Txn) commitGroup(g int) response {
	c := t.co.c
	target, ok := t.served(g)
	if !ok {
		target = c.GroupLeader(g)
	}
	elect := c.cfg.ReplElection
	if elect <= 0 {
		elect = 60 * time.Millisecond
	}
	deadline := time.Now().Add(20 * elect) // outlast a failover
	var resp response
	for {
		resp = t.sendNode(reqCommit, nil, target, false, false, c.cfg.RPCTimeout)
		if resp.err == nil || !t.twoPhase || !redirected(resp.err) {
			return resp
		}
		if time.Now().After(deadline) {
			return resp
		}
		target = t.nextMember(g, target, resp.err)
		time.Sleep(2 * time.Millisecond)
	}
}

// abortGroup rolls the transaction back on its executing member, then —
// if that member is unreachable or deposed — tells the current leader,
// which can clean any replicated prepare entry. Best effort: the group
// leader's resolver sweeps whatever this misses.
func (t *Txn) abortGroup(g int) response {
	c := t.co.c
	target, ok := t.served(g)
	if !ok {
		target = c.GroupLeader(g)
	}
	resp := t.sendNode(reqAbort, nil, target, false, false, c.cfg.RPCTimeout)
	if resp.err != nil {
		if l := c.GroupLeader(g); l != target {
			resp = t.sendNode(reqAbort, nil, l, false, false, c.cfg.RPCTimeout)
		}
	}
	return resp
}

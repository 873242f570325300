package cluster

import (
	"errors"
	"fmt"
	"time"

	"schism/internal/sqlparse"
)

// This file is the coordinator's routing layer, the one path every
// request takes. A partition is a replication group of R consecutive
// nodes — a group of one when R = 1 — and fanout targets are group ids.
// Each request resolves its group to a member: the one already executing
// for the transaction (it holds the locks and undo, so later statements
// and every protocol message follow it), else the member the cluster
// believes leads; a single-group read may instead go to any lease-valid
// follower. A member that refuses before acting is chased through
// redirect hints so the client keeps making progress while a group fails
// over. A group of one has its node as leader, no follower to read from
// and no other member to redirect to: its refusal comes back at once.

// call is one request in flight to member nid of group g.
type call struct {
	g, nid int
	pinned bool     // nid already executed for this attempt
	req    *request // the Txn's slot the request went out in
}

// fanout sends one request to each target group and returns the replies
// in target order, in a Txn-owned buffer the next fanout overwrites.
// Single-group SELECTs of groups the attempt has not written are
// follower-readable where the group has followers: they take no locks
// and do not make the group a 2PC participant.
func (t *Txn) fanout(kind reqKind, pl *plan, targets []int) []response {
	if cap(t.replies) < len(targets) {
		t.replies = make([]response, len(targets))
	}
	out := t.replies[:len(targets)]
	if kind == reqExec && t.followerReadable(pl, targets) {
		out[0] = t.readReplica(pl, targets[0])
	} else {
		t.dispatch(kind, pl, targets, out)
	}
	return out
}

func (t *Txn) followerReadable(pl *plan, targets []int) bool {
	if len(targets) != 1 || len(t.co.c.GroupMembers(targets[0])) == 1 {
		return false
	}
	if p, _ := t.touched.get(targets[0]); p.wrote {
		return false
	}
	sel, ok := pl.stmt.(*sqlparse.Select)
	return ok && !sel.ForUpdate
}

// dispatch enqueues the request for every target before it awaits the
// first reply, so a multi-group statement or 2PC round costs one round
// trip and no goroutines; only the members that refused before acting
// are then chased, one target at a time. A statement marks its groups
// participants BEFORE sending: one that fails after taking locks still
// needs the abort to reach its group.
func (t *Txn) dispatch(kind reqKind, pl *plan, targets []int, out []response) {
	var inline [4]call
	calls := inline[:0]
	for _, g := range targets {
		nid, pinned := t.served(g)
		if !pinned {
			nid = t.co.c.GroupLeader(g)
		}
		if kind == reqExec {
			t.touch(g, pl.write)
		}
		calls = append(calls, t.post(kind, pl, g, nid, pinned, false))
	}
	t.collect(calls, out, t.bound(kind))
	for i := range calls {
		out[i] = t.settle(kind, pl, &calls[i], out[i])
	}
}

// post enqueues one request to member nid of group g, in a slot from
// the Txn's free list. A statement for the member already executing for
// this attempt carries cont: that member's participant state must still
// exist (see request.cont).
func (t *Txn) post(kind reqKind, pl *plan, g, nid int, pinned, replRead bool) call {
	var r *request
	if n := len(t.slots); n > 0 {
		r = t.slots[n-1]
		t.slots = t.slots[:n-1]
	} else {
		r = &request{reply: make(chan response, 1)}
	}
	*r = request{kind: kind, ts: t.ts, epoch: t.epoch, plan: pl,
		capture: t.capture != nil, replRead: replRead, twoPhase: t.twoPhase,
		cont: pinned && kind == reqExec, reply: r.reply}
	t.co.c.nodes[nid].send(r)
	return call{g: g, nid: nid, pinned: pinned, req: r}
}

// bound is a request kind's reply timeout: RPCTimeout for the protocol
// messages, which are fast on any live node; none for statements, which
// may legitimately wait on locks up to the lock timeout.
func (t *Txn) bound(kind reqKind) time.Duration {
	if kind == reqExec {
		return 0
	}
	return t.co.c.cfg.RPCTimeout
}

// collect waits for each call's reply, in order, including its
// simulated network delay. With bound > 0 the calls share one deadline:
// a member that has not answered by then gets an ErrRPCTimeout response
// — its request stays queued and MAY still execute later (a paused node
// drains its queue on Resume), so the outcome is unknown, not "not
// executed" — and once it has passed, replies already in hand are still
// taken but nothing more is awaited. A slot goes back on the Txn's free
// list only once its reply is taken: a timed-out call abandons its slot
// to the node that may still answer into it, so a late reply can never
// land in a later request's channel, and marks the handle abandoned so
// that no later transaction reuses it either.
func (t *Txn) collect(calls []call, out []response, bound time.Duration) {
	var expired <-chan time.Time
	if bound > 0 {
		timer := time.NewTimer(bound)
		defer timer.Stop()
		expired = timer.C
	}
	late := false
	for i := range calls {
		c := &calls[i]
		var ok bool
		if late {
			select {
			case out[i], ok = <-c.req.reply:
			default:
			}
		} else {
			select {
			case out[i], ok = <-c.req.reply:
			case <-expired:
				late = true
			}
		}
		if ok {
			waitNet(out[i].sentAt, t.co.c.cfg.NetworkDelay)
			t.slots = append(t.slots, c.req)
		} else {
			out[i] = response{err: fmt.Errorf("cluster: node %d: %w", c.nid, ErrRPCTimeout)}
			t.abandoned = true
		}
	}
}

// sendNode is one bounded request/reply exchange with member nid of g.
func (t *Txn) sendNode(kind reqKind, pl *plan, g, nid int, replRead bool) response {
	calls := [1]call{t.post(kind, pl, g, nid, false, replRead)}
	var out [1]response
	t.collect(calls[:], out[:], t.bound(kind))
	return out[0]
}

// settle applies the delivery rules of the request's kind to one
// target's reply.
//
// A statement pins its group to the member that executed it — also when
// it executed and failed (lock conflict, SQL error), as the member may
// hold doomed state for us. A refusal by the pinned member means that
// state is lost (crash, or a deposition sweep) with the earlier
// statements' effects, and the only sound move is failing the attempt so
// the whole transaction retries; the cont flag makes a restarted or
// re-elected member detect the loss instead of silently starting fresh.
//
// A prepare is never redirected: any refusal is a no vote, and presumed
// abort makes aborting always safe. A one-round commit must land on the
// executing member (its refusal means the writes died; the transaction
// retries whole), but a 2PC decision is sealed by the coordinator's
// record and its prepare entry is quorum-replicated in the group log, so
// it may be delivered through whichever member now leads. An abort the
// executing member cannot take goes to the current leader, which can
// clean any replicated prepare entry — best effort: the group leader's
// resolver sweeps whatever this misses.
func (t *Txn) settle(kind reqKind, pl *plan, c *call, resp response) response {
	switch {
	case kind == reqExec:
		nid := c.nid
		if redirected(resp.err) {
			if c.pinned {
				return response{err: fmt.Errorf(
					"cluster: group %d: executing member %d lost mid-transaction: %w",
					c.g, nid, ErrNodeDown)}
			}
			if resp, nid = t.chase(kind, pl, c.g, nid, resp); redirected(resp.err) {
				return resp
			}
		}
		t.pin(c.g, nid)
	case kind == reqCommit && t.twoPhase && redirected(resp.err):
		resp, _ = t.chase(kind, nil, c.g, c.nid, resp)
	case kind == reqAbort && resp.err != nil:
		if l := t.co.c.GroupLeader(c.g); l != c.nid {
			resp = t.sendNode(kind, nil, c.g, l, false)
		}
	}
	return resp
}

// redirected is true for the errors that mean "this member refused
// before doing anything; another member might serve you".
func redirected(err error) bool {
	return errors.Is(err, ErrNodeDown) || errors.Is(err, ErrNotLeader) ||
		errors.Is(err, ErrLeaseExpired)
}

// chase re-sends a request that member nid of group g refused before
// acting, following redirects until a member serves it (or fails it
// after acting), a failover budget of 20 elections runs out, or no other
// member is left to ask — at once, in a group of one. It returns the
// last reply and the member that gave it.
func (t *Txn) chase(kind reqKind, pl *plan, g, nid int, resp response) (response, int) {
	var deadline time.Time
	for redirected(resp.err) {
		next := t.nextMember(g, nid, resp.err)
		if next == nid {
			break
		}
		if deadline.IsZero() {
			elect := t.co.c.cfg.ReplElection
			if elect <= 0 {
				elect = 60 * time.Millisecond
			}
			deadline = time.Now().Add(20 * elect) // a few failovers' worth
		} else if time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
		nid = next
		resp = t.sendNode(kind, pl, g, nid, false)
	}
	return resp, nid
}

// nextMember follows a redirect: the hint embedded in the error when it
// names a different member of this group, the cluster's leader cache
// when that moved, and plain rotation otherwise — which, in a group of
// one, comes back to cur.
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

// readReplica serves a single-group SELECT from a group replica: sticky
// per transaction for locality, re-seeded past members that are down,
// deposed-and-dirty, or lease-expired, with the locked path as the final
// fallback. The sticky pick may be the leader, which serves the read on
// its locked path (the response's locked flag says so): that member then
// holds our locks and participant state whether the read succeeded or
// died, so it is pinned like any locked statement.
func (t *Txn) readReplica(pl *plan, g int) response {
	c := t.co.c
	members := c.GroupMembers(g)
	nid, ok := t.sticky.get(g)
	if !ok {
		nid = members[t.rng.intn(len(members))]
	}
	for try := 0; try <= len(members); try++ {
		if c.nodes[nid].down() {
			nid = members[t.rng.intn(len(members))] // re-seed stickiness
			continue
		}
		resp := t.sendNode(reqExec, pl, g, nid, true)
		if resp.locked {
			t.pin(g, nid)
		}
		if resp.err == nil {
			t.sticky.set(g, nid)
			return resp
		}
		if !redirected(resp.err) {
			return resp
		}
		nid = members[t.rng.intn(len(members))] // re-seed stickiness
	}
	// No replica could serve it lock-free; read through the locked path.
	var out [1]response
	t.dispatch(reqExec, pl, []int{g}, out[:])
	return out[0]
}

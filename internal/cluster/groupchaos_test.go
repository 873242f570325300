package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"schism/internal/partition"
	"schism/internal/txn"
)

// newGroupCluster builds a replicated chaos cluster: `groups` consensus
// groups of `r` replicas each, every member of a group seeded with an
// identical copy of the group's account shard, and consensus knobs
// shrunk so failover completes in tens of milliseconds.
func newGroupCluster(t testing.TB, groups, r, keysPerGroup int, rpcTimeout time.Duration) (*Cluster, *Coordinator, *partition.Hash) {
	t.Helper()
	strat := accountHash(groups)
	c, co := deploy(t, Config{
		Nodes:             groups * r,
		ReplicationFactor: r,
		LockTimeout:       500 * time.Millisecond,
		RPCTimeout:        rpcTimeout,
		ReplHeartbeat:     2 * time.Millisecond,
		ReplElection:      25 * time.Millisecond,
		ReplSeed:          7,
	}, accountDB(t, groups*keysPerGroup), strat)
	return c, co, strat
}

// settleAndVerify is the common epilogue of every group chaos test:
// quiesce, prove the cluster still commits, converge the replicas and
// check conservation.
func settleAndVerify(t *testing.T, c *Cluster, co *Coordinator, byGroup [][]int64, total int64) {
	t.Helper()
	if !c.WaitForLeaders(2 * time.Second) {
		t.Fatal("no leaders after faults")
	}
	if err := co.Drain(); err != nil {
		t.Fatalf("Drain after faults: %v", err)
	}
	if _, _, err := co.RunTxn(func(tx *Txn) error {
		return transfer(tx, byGroup[0][0], byGroup[1][0], 1)
	}); err != nil {
		t.Fatalf("post-fault transfer: %v", err)
	}
	if err := co.Drain(); err != nil {
		t.Fatalf("final Drain: %v", err)
	}
	// The resolver may still be finishing inherited in-doubt entries;
	// conservation must hold once the group logs are fully applied.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := bankTotal(t, c); got == total {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("money not conserved: got %d, want %d", got, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGroupClusterBasic sanity-checks the replicated data plane with no
// faults: single-group and cross-group (2PC) transfers commit, reads see
// them, and all replicas converge to the same image.
func TestGroupClusterBasic(t *testing.T) {
	c, co, strat := newGroupCluster(t, 2, 3, 20, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byGroup := findKeys(t, locate, 2, 4)
	total := bankTotal(t, c)

	// Cross-group 2PC transfer.
	if _, _, err := co.RunTxn(func(tx *Txn) error {
		return transfer(tx, byGroup[0][0], byGroup[1][0], 100)
	}); err != nil {
		t.Fatalf("cross-group transfer: %v", err)
	}
	// Single-group transfer.
	if _, _, err := co.RunTxn(func(tx *Txn) error {
		return transfer(tx, byGroup[0][0], byGroup[0][1], 50)
	}); err != nil {
		t.Fatalf("single-group transfer: %v", err)
	}
	// Read back (replica-routed). A follower serves its committed prefix,
	// which may trail the leader by a heartbeat — timeline semantics —
	// so poll briefly rather than demanding instant visibility.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rd := co.begin(false)
		rows, err := rd.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", byGroup[0][0]))
		rd.abort()
		if err == nil && len(rows) == 1 && rows[0][1].I == 850 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("transfers never became readable: rows=%v err=%v", rows, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	settleAndVerify(t, c, co, byGroup, total)
}

// TestGroupLeaderCrashMatrix crashes a group leader at every 2PC trigger
// point under cross-group transfer traffic. The group must fail over and
// keep committing; after the old leader restarts and rejoins, money is
// conserved and every replica of every group holds the same image.
func TestGroupLeaderCrashMatrix(t *testing.T) {
	points := []TriggerPoint{BeforePrepareAck, AfterPrepareAck, BeforeCommitAck}
	for _, point := range points {
		t.Run(point.String(), func(t *testing.T) {
			c, co, strat := newGroupCluster(t, 2, 3, 20, 0)
			defer c.Close()
			locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
			byGroup := findKeys(t, locate, 2, 8)
			total := bankTotal(t, c)

			// Node 0 bootstraps as group 0's leader, so the trigger point
			// fires on a leader in the middle of 2PC.
			plan := NewFaultPlan(co, Fault{
				Point:        point,
				Node:         0,
				After:        3,
				RestartAfter: 40 * time.Millisecond,
			})
			stop := make(chan struct{})
			wg, commits, _ := runTransferTraffic(t, co, byGroup, 4, stop)
			time.Sleep(250 * time.Millisecond)
			close(stop)
			wg.Wait()
			plan.Close()

			st := plan.Stats()
			if st.Crashes != 1 || st.Restarts != 1 {
				t.Fatalf("plan injected crashes=%d restarts=%d, want 1/1 (pending=%d)",
					st.Crashes, st.Restarts, plan.Pending())
			}
			if errs := plan.Errs(); len(errs) != 0 {
				t.Fatalf("scheduled restart errors: %v", errs)
			}
			if commits.Load() == 0 {
				t.Fatal("no transfer ever committed")
			}
			settleAndVerify(t, c, co, byGroup, total)
		})
	}
}

// TestGroupLeaderIsolationMatrix isolates a group leader (it keeps
// running but no replication message reaches or leaves it) at every 2PC
// trigger point. The majority side elects a new leader and keeps
// committing; the old leader's in-flight prepares fail their quorum
// round and vote no. After the network heals the deposed leader
// reconciles and the images converge.
func TestGroupLeaderIsolationMatrix(t *testing.T) {
	points := []TriggerPoint{BeforePrepareAck, AfterPrepareAck, BeforeCommitAck}
	for _, point := range points {
		t.Run(point.String(), func(t *testing.T) {
			c, co, strat := newGroupCluster(t, 2, 3, 20, 10*time.Millisecond)
			defer c.Close()
			locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
			byGroup := findKeys(t, locate, 2, 8)
			total := bankTotal(t, c)

			plan := NewFaultPlan(co, Fault{
				Point:        point,
				Node:         0,
				After:        3,
				Isolate:      true,
				RestartAfter: 80 * time.Millisecond, // heals the network
			})
			stop := make(chan struct{})
			wg, commits, _ := runTransferTraffic(t, co, byGroup, 4, stop)
			time.Sleep(250 * time.Millisecond)
			close(stop)
			wg.Wait()
			plan.Close()

			st := plan.Stats()
			if st.Isolations != 1 || st.Heals != 1 {
				t.Fatalf("plan injected isolations=%d heals=%d, want 1/1 (pending=%d)",
					st.Isolations, st.Heals, plan.Pending())
			}
			if commits.Load() == 0 {
				t.Fatal("no transfer ever committed")
			}
			settleAndVerify(t, c, co, byGroup, total)
		})
	}
}

// TestGroupInDoubtCommitFailover pins the tentpole guarantee: a prepared
// transaction survives the death of its group leader. The leader votes
// yes (the prepare entry is quorum-committed before the ack) and crashes
// before the commit arrives; the new leader inherits the in-doubt entry
// from the replicated log and the commit decision is delivered through
// it — the transfer's effects must survive on the group.
func TestGroupInDoubtCommitFailover(t *testing.T) {
	c, co, strat := newGroupCluster(t, 2, 3, 10, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byGroup := findKeys(t, locate, 2, 1)
	onA, onB := byGroup[0][0], byGroup[1][0]
	total := bankTotal(t, c)

	// Crash group 0's executing leader right after its yes vote is
	// durable and acked (the prepare request follows the statements to
	// whichever member executed them, so target that member). Leadership
	// churn can depose that member between exec and prepare, in which
	// case the prepare is REFUSED before reaching the trigger: the txn
	// aborts cleanly (no vote, no money moved) and we simply re-arm.
	var victim int
	for attempt := 0; ; attempt++ {
		tx := co.begin(false)
		if err := transfer(tx, onA, onB, 100); err != nil {
			t.Fatal(err)
		}
		victim, _ = tx.served(0)
		plan := NewFaultPlan(co, Fault{Point: AfterPrepareAck, Node: victim})
		err := tx.commit()
		plan.Close()
		if err == nil && !c.NodeRunning(victim) {
			break // the vote was acked and the leader died in doubt
		}
		if err == nil {
			t.Fatalf("commit succeeded but the fault never fired on node %d", victim)
		}
		// Prepare refused (deposed executor): aborted whole, retry.
		if !c.NodeRunning(victim) {
			if _, rerr := co.RestartNode(victim); rerr != nil {
				t.Fatal(rerr)
			}
		}
		if attempt == 9 {
			t.Fatalf("could not arrange the in-doubt commit: last err %v", err)
		}
	}

	// The commit must become visible on group 0 WITHOUT restarting the
	// dead leader: the new leader applies it from the replicated log
	// (directly, or via the resolver consulting the decision record).
	deadline := time.Now().Add(3 * time.Second)
	for {
		rd := co.begin(false)
		rows, err := rd.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", onA))
		rd.abort()
		if err == nil && len(rows) == 1 && rows[0][1].I == 900 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-doubt commit never surfaced on surviving replicas: rows=%v err=%v", rows, err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := co.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	settleAndVerify(t, c, co, byGroup, total)
}

// TestGroupInDoubtAbortFailover pins the abort branch: group 0's leader
// crashes after voting yes while group 1's leader crashes before voting,
// so the coordinator aborts. The new leader of group 0 inherits the
// in-doubt prepare entry and must resolve it to abort via the
// termination protocol — the transfer leaves no trace.
func TestGroupInDoubtAbortFailover(t *testing.T) {
	r := 3
	c, co, strat := newGroupCluster(t, 2, r, 10, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byGroup := findKeys(t, locate, 2, 2)
	onA, onB := byGroup[0][0], byGroup[1][0]
	total := bankTotal(t, c)

	// Target the members that actually executed each group's statements:
	// group 0's dies after its yes vote, group 1's before voting. As in
	// the commit test, a deposed executor refuses the prepare before its
	// trigger fires — the txn aborts with no crash, so re-arm and retry
	// until both faults actually fired.
	for attempt := 0; ; attempt++ {
		tx := co.begin(false)
		if err := transfer(tx, onA, onB, 100); err != nil {
			t.Fatal(err)
		}
		v0, _ := tx.served(0)
		v1, _ := tx.served(1)
		plan := NewFaultPlan(co,
			Fault{Point: AfterPrepareAck, Node: v0},
			Fault{Point: BeforePrepareAck, Node: v1},
		)
		err := tx.commit()
		plan.Close()
		if err == nil {
			t.Fatal("commit succeeded despite a participant group voting no")
		}
		fired := !c.NodeRunning(v0) && !c.NodeRunning(v1)
		for _, n := range []int{v0, v1} {
			if !c.NodeRunning(n) {
				if _, rerr := co.RestartNode(n); rerr != nil {
					t.Fatal(rerr)
				}
			}
		}
		if fired {
			break
		}
		if attempt == 9 {
			t.Fatalf("could not arrange the in-doubt abort: last err %v", err)
		}
	}
	// The inherited in-doubt entry resolves to abort (presumed abort: no
	// commit record); balances are untouched and the rows writable.
	deadline := time.Now().Add(3 * time.Second)
	for {
		_, _, err := co.RunTxn(func(tx *Txn) error { return transfer(tx, onA, byGroup[0][1], 1) })
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-doubt rows still blocked after abort resolution: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	settleAndVerify(t, c, co, byGroup, total)
}

// TestGroupSymmetricPartition cuts group 0's leader off behind a
// symmetric network partition (no crash — both sides keep running). The
// majority side must elect a new leader and the cluster keep committing;
// the minority cannot commit anything. After healing, images converge
// and money is conserved.
func TestGroupSymmetricPartition(t *testing.T) {
	c, co, strat := newGroupCluster(t, 2, 3, 20, 10*time.Millisecond)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byGroup := findKeys(t, locate, 2, 8)
	total := bankTotal(t, c)

	stop := make(chan struct{})
	wg, commits, _ := runTransferTraffic(t, co, byGroup, 4, stop)
	time.Sleep(50 * time.Millisecond)

	c.PartitionNodes([]int{0}, []int{1, 2})
	before := commits.Load()
	time.Sleep(150 * time.Millisecond)
	if after := commits.Load(); after == before {
		close(stop) // join the traffic: the deferred Close must not race its sends
		wg.Wait()
		t.Fatalf("no commits while group 0's old leader was partitioned away (stuck at %d)", after)
	}
	c.HealNetwork()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	settleAndVerify(t, c, co, byGroup, total)
}

// TestGroupAsymmetricPartition drops group 0's leader's OUTBOUND links
// only: it still hears its peers but cannot replicate to them. It must
// lose leadership (no quorum acks), a majority-side leader takes over,
// and commits continue. Heal, converge, conserve.
func TestGroupAsymmetricPartition(t *testing.T) {
	c, co, strat := newGroupCluster(t, 2, 3, 20, 10*time.Millisecond)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byGroup := findKeys(t, locate, 2, 8)
	total := bankTotal(t, c)

	stop := make(chan struct{})
	wg, commits, _ := runTransferTraffic(t, co, byGroup, 4, stop)
	time.Sleep(50 * time.Millisecond)

	c.SetLinkFault(0, 1, LinkFault{Drop: true})
	c.SetLinkFault(0, 2, LinkFault{Drop: true})
	before := commits.Load()
	time.Sleep(150 * time.Millisecond)
	if after := commits.Load(); after == before {
		close(stop) // join the traffic: the deferred Close must not race its sends
		wg.Wait()
		t.Fatal("no commits under asymmetric partition of group 0's leader")
	}
	c.HealNetwork()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	settleAndVerify(t, c, co, byGroup, total)
}

// TestGroupFlakyLinksStillCommit runs transfer traffic while every
// replication link of group 0 drops 20% of messages and reorders the
// rest. Elections and appends retry through the noise; the invariants
// must hold once the links heal.
func TestGroupFlakyLinksStillCommit(t *testing.T) {
	c, co, strat := newGroupCluster(t, 2, 3, 20, 10*time.Millisecond)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byGroup := findKeys(t, locate, 2, 8)
	total := bankTotal(t, c)

	for _, a := range []int{0, 1, 2} {
		for _, b := range []int{0, 1, 2} {
			if a != b {
				c.SetLinkFault(a, b, LinkFault{DropProb: 0.2, Delay: 2 * time.Millisecond, Reorder: true})
			}
		}
	}
	stop := make(chan struct{})
	wg, commits, _ := runTransferTraffic(t, co, byGroup, 4, stop)
	time.Sleep(250 * time.Millisecond)
	close(stop)
	wg.Wait()
	c.HealNetwork()
	if commits.Load() == 0 {
		t.Fatal("no transfer ever committed over flaky links")
	}
	settleAndVerify(t, c, co, byGroup, total)
}

// TestGroupFollowerCatchUpPastTruncation crashes a follower, runs enough
// commits that the leader compacts the replicated log past the
// follower's position, and restarts it: catch-up must go through a
// snapshot install, after which the images converge.
func TestGroupFollowerCatchUpPastTruncation(t *testing.T) {
	c, co := deploy(t, Config{
		Nodes:              3,
		ReplicationFactor:  3,
		LockTimeout:        500 * time.Millisecond,
		ReplHeartbeat:      2 * time.Millisecond,
		ReplElection:       25 * time.Millisecond,
		ReplCompactEntries: 16, // compact aggressively so catch-up needs the snapshot
		ReplSeed:           7,
	}, accountDB(t, 10), accountHash(1))
	defer c.Close()
	total := bankTotal(t, c)

	c.Crash(2) // a follower (node 0 bootstraps as leader)
	for i := 0; i < 80; i++ {
		if _, _, err := co.RunTxn(func(tx *Txn) error {
			return transfer(tx, int64(i%10), int64((i+1)%10), 1)
		}); err != nil {
			t.Fatalf("transfer %d with follower down: %v", i, err)
		}
	}
	if _, err := co.RestartNode(2); err != nil {
		t.Fatal(err)
	}
	if err := co.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := bankTotal(t, c); got != total {
		t.Fatalf("money not conserved: got %d, want %d", got, total)
	}
}

// TestGroupLeaderReadDieIsAborted pins the participant rule for a
// replica-routed read whose sticky pick is the leader: the leader serves
// it on the locked path, so it is a participant whether the read
// succeeds or fails. Here the read locks row 2, dies in wait-die on row
// 5 (held by an older writer), and the younger reader's Abort must still
// reach the leader, or its lock on 2 outlives it and the older writer
// waits out its lock timeout.
func TestGroupLeaderReadDieIsAborted(t *testing.T) {
	c, co, _ := newGroupCluster(t, 1, 3, 8, 0)
	defer c.Close()
	writer := co.begin(false) // older: wait-die kills younger requesters of its rows
	if _, err := writer.Exec("UPDATE account SET bal = bal - 1 WHERE id = 5"); err != nil {
		t.Fatal(err)
	}
	leader, ok := writer.served(0)
	if !ok {
		t.Fatal("writer's statement pinned no member")
	}
	reader := co.begin(false)
	reader.sticky.set(0, leader)
	if _, err := reader.Exec("SELECT * FROM account WHERE id IN (2, 5)"); !errors.Is(err, txn.ErrDie) {
		t.Fatalf("leader-served read of a held row: %v, want wait-die", err)
	}
	reader.abort()
	n := c.Node(leader)
	n.tmu.Lock()
	_, leaked := n.txns[reader.ts]
	n.tmu.Unlock()
	if leaked {
		t.Fatalf("leader %d still holds the aborted reader's participant state", leader)
	}
	waits := n.locks.Stats().Waits
	start := time.Now()
	if _, err := writer.Exec("UPDATE account SET bal = bal + 1 WHERE id = 2"); err != nil {
		t.Fatalf("older writer on the reader's row: %v", err)
	}
	if d, w := time.Since(start), n.locks.Stats().Waits-waits; w != 0 || d > 100*time.Millisecond {
		t.Fatalf("older writer waited (%d lock waits, %v) on a row the aborted reader held", w, d)
	}
	if err := writer.commit(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupReadFailsOverFromCrashedReplica pins the follower-read
// failover: reads stick to a chosen replica, and when that replica
// crashes the next read re-seeds to a live member instead of failing
// the transaction.
func TestGroupReadFailsOverFromCrashedReplica(t *testing.T) {
	c, co, strat := newGroupCluster(t, 2, 3, 10, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byGroup := findKeys(t, locate, 2, 1)
	key := byGroup[0][0]
	q := fmt.Sprintf("SELECT * FROM account WHERE id = %d", key)

	tx := co.begin(false)
	if rows, err := tx.Exec(q); err != nil || len(rows) != 1 {
		t.Fatalf("first read: rows=%v err=%v", rows, err)
	}
	// Whichever member served it is now sticky; crash exactly that one.
	var sticky int
	var ok bool
	if sticky, ok = tx.sticky.get(0); !ok {
		// Leader-served read: pinned instead of sticky.
		if sticky, ok = tx.served(0); !ok {
			t.Fatal("read recorded neither sticky nor pinned member")
		}
		// A pinned (locked) read cannot survive losing its member — that
		// is the 2PC participant contract. Only the lock-free follower
		// path is required to fail over; re-run on a follower.
		tx.abort()
		tx = co.begin(false)
		tx.sticky.set(0, (sticky+1)%3)
		if rows, err := tx.Exec(q); err != nil || len(rows) != 1 {
			t.Fatalf("follower read: rows=%v err=%v", rows, err)
		}
		sticky, _ = tx.sticky.get(0)
	}
	c.Crash(sticky)
	rows, err := tx.Exec(q)
	if err != nil || len(rows) != 1 {
		t.Fatalf("read through crashed sticky replica %d: rows=%v err=%v", sticky, rows, err)
	}
	if again, ok := tx.sticky.get(0); ok && again == sticky {
		t.Fatalf("stickiness not re-seeded off crashed replica %d", sticky)
	}
	tx.abort()
	if _, err := co.RestartNode(sticky); err != nil {
		t.Fatal(err)
	}
}

package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/txn"
)

// newChaosCluster is newAccountCluster with a fault-friendly config:
// short lock timeout (so termination-protocol bounds are quick), an RPC
// timeout when asked for (pause schedules need it so the commit path
// surfaces ErrRPCTimeout instead of wedging), and no log-force latency.
func newChaosCluster(t testing.TB, n, keysPerNode int, rpcTimeout time.Duration) (*Cluster, *Coordinator, *partition.Hash) {
	t.Helper()
	strat := accountHash(n)
	c, co := deploy(t, Config{
		Nodes:       n,
		LockTimeout: 500 * time.Millisecond,
		RPCTimeout:  rpcTimeout,
	}, accountDB(t, n*keysPerNode), strat)
	return c, co, strat
}

// bankTotal totals the balances of the cluster's logical snapshot,
// failing the test if the snapshot does (copies that differ, a group
// with no running member, replicas that do not converge).
func bankTotal(t testing.TB, c *Cluster) int64 {
	t.Helper()
	snap, err := Logical(c)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	snap.Visit("account", func(_ int64, row storage.Row) { total += row[1].I })
	return total
}

// transfer moves amount from one account to another inside tx.
func transfer(tx *Txn, from, to int64, amount int) error {
	if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal - %d WHERE id = %d", amount, from)); err != nil {
		return err
	}
	_, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal + %d WHERE id = %d", amount, to))
	return err
}

// runTransferTraffic drives `workers` closed-loop transfer workers until
// stop closes. Every transfer is forced distributed (from and to homed on
// different nodes) so 2PC trigger points fire constantly. Errors from
// RunTxn are counted, not fataled: under fault injection some outcomes
// (e.g. starvation while a node is down) are legitimate — the invariants
// are checked by the caller after recovery.
func runTransferTraffic(t *testing.T, co *Coordinator, byNode [][]int64, workers int, stop chan struct{}) (*sync.WaitGroup, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var wg sync.WaitGroup
	var commits, failures atomic.Int64
	n := len(byNode)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, b := int(seed)%n, (int(seed)+1)%n
				from := byNode[a][rng.Intn(len(byNode[a]))]
				to := byNode[b][rng.Intn(len(byNode[b]))]
				_, _, err := co.RunTxn(func(tx *Txn) error { return transfer(tx, from, to, 3) })
				if err != nil {
					failures.Add(1)
				} else {
					commits.Add(1)
				}
			}
		}(int64(w + 1))
	}
	return &wg, &commits, &failures
}

// TestChaosCrashMatrix crashes a node at every 2PC trigger point, on each
// node role, in the middle of distributed transfer traffic, with an
// automatic restart + WAL replay. After recovery the cluster must pass
// Drain, commit new distributed work, and conserve every unit of money —
// no lost writes, no half-commits.
func TestChaosCrashMatrix(t *testing.T) {
	points := []TriggerPoint{BeforePrepareAck, AfterPrepareAck, BeforeCommitAck}
	for _, point := range points {
		for victim := 0; victim < 2; victim++ {
			t.Run(fmt.Sprintf("%v/node%d", point, victim), func(t *testing.T) {
				c, co, strat := newChaosCluster(t, 2, 25, 0)
				defer c.Close()
				locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
				byNode := findKeys(t, locate, 2, 10)
				total := bankTotal(t, c)

				plan := NewFaultPlan(co, Fault{
					Point:        point,
					Node:         victim,
					After:        3,
					RestartAfter: 20 * time.Millisecond,
				})
				stop := make(chan struct{})
				wg, commits, _ := runTransferTraffic(t, co, byNode, 4, stop)
				time.Sleep(150 * time.Millisecond)
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
				if err := co.Drain(); err != nil {
					t.Fatalf("Drain after recovery: %v", err)
				}
				// The recovered cluster must still commit distributed work.
				if _, _, err := co.RunTxn(func(tx *Txn) error {
					return transfer(tx, byNode[0][0], byNode[1][0], 1)
				}); err != nil {
					t.Fatalf("post-recovery transfer: %v", err)
				}
				if got := bankTotal(t, c); got != total {
					t.Fatalf("money not conserved across crash at %v: got %d, want %d (recovery: %v)",
						point, got, total, st.Recovery)
				}
			})
		}
	}
}

// TestChaosPauseMatrix stalls a node (network partition / GC pause) at
// each 2PC trigger point under traffic, with an RPC timeout configured so
// the coordinator surfaces timeouts instead of wedging. The stalled
// requests drain when the node resumes — including commits the
// coordinator had already given up on ("outcome unknown") — and the money
// invariant must hold across the queued, late-applying work.
func TestChaosPauseMatrix(t *testing.T) {
	points := []TriggerPoint{BeforePrepareAck, AfterPrepareAck, BeforeCommitAck}
	for _, point := range points {
		t.Run(point.String(), func(t *testing.T) {
			c, co, strat := newChaosCluster(t, 2, 25, 5*time.Millisecond)
			defer c.Close()
			locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
			byNode := findKeys(t, locate, 2, 10)
			total := bankTotal(t, c)

			plan := NewFaultPlan(co, Fault{
				Point:        point,
				Node:         1,
				After:        3,
				Pause:        true,
				RestartAfter: 40 * time.Millisecond,
			})
			stop := make(chan struct{})
			wg, commits, _ := runTransferTraffic(t, co, byNode, 4, stop)
			time.Sleep(150 * time.Millisecond)
			close(stop)
			wg.Wait()
			plan.Close()

			st := plan.Stats()
			if st.Pauses != 1 || st.Resumes != 1 {
				t.Fatalf("plan injected pauses=%d resumes=%d, want 1/1", st.Pauses, st.Resumes)
			}
			if commits.Load() == 0 {
				t.Fatal("no transfer ever committed")
			}
			if err := co.Drain(); err != nil {
				t.Fatalf("Drain after resume: %v", err)
			}
			if got := bankTotal(t, c); got != total {
				t.Fatalf("money not conserved across pause at %v: got %d, want %d", point, got, total)
			}
		})
	}
}

// TestChaosRandomSchedule replays a seeded random crash schedule on a
// 3-node cluster: several crashes spread over the 2PC trigger points,
// each auto-restarting. The same seed yields the same schedule; the
// invariant (conservation + post-recovery liveness) must hold for all of
// them.
func TestChaosRandomSchedule(t *testing.T) {
	for _, seed := range []int64{1, 42, 1234} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			c, co, strat := newChaosCluster(t, 3, 20, 0)
			defer c.Close()
			locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
			byNode := findKeys(t, locate, 3, 8)
			total := bankTotal(t, c)

			faults := RandomFaults(seed, 3, 3, 40, 10*time.Millisecond, 30*time.Millisecond)
			plan := NewFaultPlan(co, faults...)
			stop := make(chan struct{})
			wg, commits, _ := runTransferTraffic(t, co, byNode, 6, stop)
			time.Sleep(250 * time.Millisecond)
			close(stop)
			wg.Wait()
			plan.Close()

			if errs := plan.Errs(); len(errs) != 0 {
				t.Fatalf("scheduled restart errors: %v", errs)
			}
			// Every node must be back (restarts are scheduled per crash; a
			// crash that never fired leaves its node untouched).
			for i := 0; i < c.NumNodes(); i++ {
				if !c.NodeRunning(i) {
					t.Fatalf("node %d not running after plan close", i)
				}
			}
			if err := co.Drain(); err != nil {
				t.Fatalf("Drain after recovery: %v", err)
			}
			if _, _, err := co.RunTxn(func(tx *Txn) error {
				return transfer(tx, byNode[0][0], byNode[1][0], 1)
			}); err != nil {
				t.Fatalf("post-recovery transfer: %v", err)
			}
			if got := bankTotal(t, c); got != total {
				st := plan.Stats()
				t.Fatalf("money not conserved under schedule %v (commits=%d, stats=%+v): got %d, want %d",
					faults, commits.Load(), st, got, total)
			}
		})
	}
}

// TestInDoubtResolvesCommit pins the in-doubt COMMIT branch of the
// termination protocol: a participant crashes immediately after its yes
// vote is acked, the coordinator commits (the decision record stands in
// for the dead node's ack), and recovery must finish the commit from the
// record — the write survives the crash.
func TestInDoubtResolvesCommit(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 10, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byNode := findKeys(t, locate, 2, 1)
	onA, onB := byNode[0][0], byNode[1][0]
	victim := locate(onB)

	plan := NewFaultPlan(co, Fault{Point: AfterPrepareAck, Node: victim})
	defer plan.Close()

	tx := co.begin(false)
	if err := transfer(tx, onA, onB, 100); err != nil {
		t.Fatal(err)
	}
	// The victim votes yes, logs the vote, crashes. The other participant
	// acks its commit; delivery to the victim fails, so the decision
	// record is retained and Commit still reports success.
	if err := tx.commit(); err != nil {
		t.Fatalf("commit with in-doubt participant: %v", err)
	}
	if c.NodeRunning(victim) {
		t.Fatal("fault never fired: victim still running")
	}

	rs, err := co.RestartNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rs.InDoubt != 1 || rs.InDoubtCommitted != 1 || rs.InDoubtAborted != 0 {
		t.Fatalf("recovery stats %v, want exactly one in-doubt txn resolved to commit", rs)
	}
	// Both legs of the transfer are durable, and the in-doubt row's lock
	// was released: a fresh transaction can read and write it.
	check := co.begin(false)
	for key, want := range map[int64]int64{onA: 900, onB: 1100} {
		rows, err := check.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", key))
		if err != nil || len(rows) != 1 || rows[0][1].I != want {
			t.Fatalf("key %d after in-doubt commit: rows=%v err=%v, want bal=%d", key, rows, err, want)
		}
	}
	check.abort() // release the read locks before probing writability
	if _, _, err := co.RunTxn(func(tx *Txn) error { return transfer(tx, onB, onA, 1) }); err != nil {
		t.Fatalf("in-doubt row still locked after resolution: %v", err)
	}
}

// TestInDoubtResolvesAbort pins the in-doubt ABORT branch: the victim
// votes yes and crashes, but the other participant votes no, so no commit
// decision is ever recorded. Recovery must roll the victim's vote back by
// presumed abort — the write vanishes.
func TestInDoubtResolvesAbort(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 10, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byNode := findKeys(t, locate, 2, 1)
	onA, onB := byNode[0][0], byNode[1][0]
	victim := locate(onB)

	plan := NewFaultPlan(co, Fault{Point: AfterPrepareAck, Node: victim})
	defer plan.Close()

	tx := co.begin(false)
	if err := transfer(tx, onA, onB, 100); err != nil {
		t.Fatal(err)
	}
	// Doom the OTHER participant so it votes no while the victim's yes
	// vote goes durable and the victim crashes in doubt.
	c.Node(locate(onA)).state(tx.ts).doomed = true
	err := tx.commit()
	if err == nil || !strings.Contains(err.Error(), "voted no") {
		t.Fatalf("commit error = %v, want participant vote-no", err)
	}
	if c.NodeRunning(victim) {
		t.Fatal("fault never fired: victim still running")
	}

	rs, err := co.RestartNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rs.InDoubt != 1 || rs.InDoubtAborted != 1 || rs.InDoubtCommitted != 0 {
		t.Fatalf("recovery stats %v, want exactly one in-doubt txn resolved to abort", rs)
	}
	check := co.begin(false)
	defer check.abort()
	for _, key := range []int64{onA, onB} {
		rows, err := check.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", key))
		if err != nil || len(rows) != 1 || rows[0][1].I != 1000 {
			t.Fatalf("key %d not rolled back after in-doubt abort: rows=%v err=%v", key, rows, err)
		}
	}
}

// TestCrashBeforeVotePresumedAbort crashes a participant before its vote
// is durable: the prepare is refused, the coordinator aborts, and
// recovery finds an active (never-prepared) transaction whose logged
// writes it must undo — the presumed-abort loser path.
func TestCrashBeforeVotePresumedAbort(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 10, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byNode := findKeys(t, locate, 2, 1)
	onA, onB := byNode[0][0], byNode[1][0]
	victim := locate(onB)

	plan := NewFaultPlan(co, Fault{Point: BeforePrepareAck, Node: victim})
	defer plan.Close()

	tx := co.begin(false)
	if err := transfer(tx, onA, onB, 100); err != nil {
		t.Fatal(err)
	}
	err := tx.commit()
	if err == nil || !errors.Is(err, ErrNodeDown) {
		t.Fatalf("commit error = %v, want refusal by crashed node", err)
	}

	rs, err := co.RestartNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rs.LosersUndone != 1 || rs.InDoubt != 0 {
		t.Fatalf("recovery stats %v, want one loser undone, none in doubt", rs)
	}
	check := co.begin(false)
	defer check.abort()
	for _, key := range []int64{onA, onB} {
		rows, err := check.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", key))
		if err != nil || len(rows) != 1 || rows[0][1].I != 1000 {
			t.Fatalf("key %d not rolled back: rows=%v err=%v", key, rows, err)
		}
	}
}

// TestCrashBetweenStatementsRetriesWhole pins the partial-commit guard at
// R = 1: a node that crashes and restarts between two statements of one
// transaction undoes the first as a loser, so the second must not run on
// fresh state. It (or the commit) fails retryably, nothing commits, and
// under RunTxn the retry commits the whole transfer.
func TestCrashBetweenStatementsRetriesWhole(t *testing.T) {
	c, co, _ := newChaosCluster(t, 1, 4, 0)
	defer c.Close()
	const total = 4000
	if got := bankTotal(t, c); got != total {
		t.Fatalf("seeded %d, want %d", got, total)
	}
	crash := func() {
		c.Crash(0)
		if _, err := co.RestartNode(0); err != nil {
			t.Fatal(err)
		}
	}

	tx := co.begin(false)
	if _, err := tx.Exec("UPDATE account SET bal = bal - 100 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	crash()
	_, err := tx.Exec("UPDATE account SET bal = bal + 100 WHERE id = 1")
	if err == nil {
		err = tx.commit()
	} else {
		tx.abort()
	}
	if got := bankTotal(t, c); got != total {
		t.Fatalf("half a transfer committed (err %v): balances sum to %d, want %d", err, got, total)
	}
	if err == nil || !IsRetryable(err) {
		t.Fatalf("statement after the crash: %v, want a retryable refusal", err)
	}

	crashed := false
	_, aborts, err := co.RunTxn(func(tx *Txn) error {
		if _, err := tx.Exec("UPDATE account SET bal = bal - 100 WHERE id = 0"); err != nil {
			return err
		}
		if !crashed {
			crashed = true
			crash()
		}
		_, err := tx.Exec("UPDATE account SET bal = bal + 100 WHERE id = 1")
		return err
	})
	if err != nil || aborts != 1 {
		t.Fatalf("RunTxn across the crash: aborts=%d err=%v, want one retry then commit", aborts, err)
	}
	check := co.begin(false)
	defer check.abort()
	for key, want := range map[int64]int64{0: 900, 1: 1100, 2: 1000, 3: 1000} {
		rows, err := check.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", key))
		if err != nil || len(rows) != 1 || rows[0][1].I != want {
			t.Fatalf("key %d after the retried transfer: rows=%v err=%v, want bal=%d", key, rows, err, want)
		}
	}
}

// TestCrashBeforeOneRoundCommitRetries: a node that crashes and restarts
// after a transaction's last statement has undone it as a loser, so the
// one-round commit must be refused retryably rather than report a
// commit whose writes are gone.
func TestCrashBeforeOneRoundCommitRetries(t *testing.T) {
	c, co, _ := newChaosCluster(t, 1, 4, 0)
	defer c.Close()
	tx := co.begin(false)
	if err := transfer(tx, 0, 1, 100); err != nil {
		t.Fatal(err)
	}
	c.Crash(0)
	if _, err := co.RestartNode(0); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); err == nil || !IsRetryable(err) {
		t.Fatalf("commit of undone writes: %v, want a retryable refusal", err)
	}
	check := co.begin(false)
	defer check.abort()
	rows, err := check.Exec("SELECT * FROM account WHERE id IN (0, 1)")
	if err != nil || len(rows) != 2 || rows[0][1].I != 1000 || rows[1][1].I != 1000 {
		t.Fatalf("balances after the refused commit: rows=%v err=%v, want both 1000", rows, err)
	}
}

// TestCrashedNodeStatementFailsFast pins the one-member group's refusal:
// a statement for a crashed R = 1 node comes back with ErrNodeDown after
// one send. There is no other member to redirect to, so nothing may
// chase the refusal through the failover budget (20 elections of the
// default 60 ms).
func TestCrashedNodeStatementFailsFast(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 4, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	key := findKeys(t, locate, 2, 1)[1][0]
	c.Crash(1)
	tx := co.begin(false)
	start := time.Now()
	_, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 1 WHERE id = %d", key))
	d := time.Since(start)
	tx.abort()
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("statement on crashed node: %v, want ErrNodeDown", err)
	}
	if d > 20*time.Millisecond {
		t.Fatalf("refusal took %v, want one send (well under one 60ms election)", d)
	}
	if _, err := co.RestartNode(1); err != nil {
		t.Fatal(err)
	}
}

// TestRestartEmptyWAL restarts a node that crashed having done nothing:
// analysis of the empty log must succeed with zero work.
func TestRestartEmptyWAL(t *testing.T) {
	c, co, _ := newChaosCluster(t, 2, 5, 0)
	defer c.Close()
	c.Crash(1)
	rs, err := co.RestartNode(1)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 0 || rs.LosersUndone != 0 || rs.InDoubt != 0 || rs.TornBytes != 0 {
		t.Fatalf("empty-WAL recovery stats %v, want all zero", rs)
	}
	if _, _, err := co.RunTxn(func(tx *Txn) error {
		_, err := tx.Exec("SELECT * FROM account WHERE bal >= 0")
		return err
	}); err != nil {
		t.Fatalf("node not serving after empty recovery: %v", err)
	}
}

// TestRestartErrors pins Restart's preconditions: restarting a running or
// paused node fails with ErrNotCrashed, and double-crash is a no-op.
func TestRestartErrors(t *testing.T) {
	c, co, _ := newChaosCluster(t, 2, 5, 0)
	defer c.Close()
	if _, err := co.RestartNode(0); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("restart of running node: %v, want ErrNotCrashed", err)
	}
	c.Pause(0)
	if _, err := co.RestartNode(0); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("restart of paused node: %v, want ErrNotCrashed", err)
	}
	c.Resume(0)
	c.Crash(1)
	c.Crash(1) // no-op, not a panic
	if _, err := co.RestartNode(1); err != nil {
		t.Fatalf("restart of crashed node: %v", err)
	}
}

// TestDrainFailsFastOnDownNode pins satellite behaviour: Drain must
// return ErrDrainAborted quickly (not wait for the transactions queued
// on the down node) while any node is crashed or paused, and succeed again once the cluster
// is whole.
func TestDrainFailsFastOnDownNode(t *testing.T) {
	c, co, _ := newChaosCluster(t, 2, 5, 0)
	defer c.Close()

	c.Crash(1)
	start := time.Now()
	err := co.Drain()
	if !errors.Is(err, ErrDrainAborted) {
		t.Fatalf("Drain with crashed node: %v, want ErrDrainAborted", err)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("Drain took %v to fail, want fast", d)
	}
	if !strings.Contains(err.Error(), "[1]") {
		t.Fatalf("Drain error does not name the down node: %v", err)
	}
	if _, err := co.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	if err := co.Drain(); err != nil {
		t.Fatalf("Drain after restart: %v", err)
	}

	c.Pause(0)
	if err := co.Drain(); !errors.Is(err, ErrDrainAborted) {
		t.Fatalf("Drain with paused node: %v, want ErrDrainAborted", err)
	}
	c.Resume(0)
	if err := co.Drain(); err != nil {
		t.Fatalf("Drain after resume: %v", err)
	}
}

// TestDrainFailsFastPollAllocFree: the availability check Drain polls
// every 100 µs allocates nothing, for groups of one and of three alike.
func TestDrainFailsFastPollAllocFree(t *testing.T) {
	c1, _, _ := newChaosCluster(t, 2, 1, 0)
	defer c1.Close()
	c3, _, _ := newGroupCluster(t, 1, 3, 1, 0)
	defer c3.Close()
	for _, c := range []*Cluster{c1, c3} {
		if a := testing.AllocsPerRun(100, func() { c.allAvailable() }); a != 0 {
			t.Errorf("allAvailable at R = %d allocates %v times per poll, want 0", c.ReplicationFactor(), a)
		}
	}
}

// TestLogForceAccountingPerTxn pins the satellite rule "exactly one
// modeled fsync per durable record": a single-node commit forces its
// node's log once; a two-node 2PC forces each participant's log twice
// (prepare + commit); an abort forces nothing.
func TestLogForceAccountingPerTxn(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 10, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byNode := findKeys(t, locate, 2, 2)
	forces := func() [2]int64 {
		return [2]int64{c.Node(0).WAL().Forces(), c.Node(1).WAL().Forces()}
	}

	// Single-node transaction: one commit force on its home, nothing else.
	before := forces()
	tx := co.begin(false)
	if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 1 WHERE id = %d", byNode[0][0])); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	after := forces()
	if after[0]-before[0] != 1 || after[1]-before[1] != 0 {
		t.Fatalf("single-node commit forces: node0 %d node1 %d, want 1/0", after[0]-before[0], after[1]-before[1])
	}

	// Distributed transaction: prepare + commit on each participant.
	before = forces()
	tx = co.begin(false)
	if err := transfer(tx, byNode[0][0], byNode[1][0], 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	after = forces()
	if after[0]-before[0] != 2 || after[1]-before[1] != 2 {
		t.Fatalf("2PC forces: node0 %d node1 %d, want 2/2", after[0]-before[0], after[1]-before[1])
	}

	// Aborted transaction: presumed abort needs no forced record.
	before = forces()
	tx = co.begin(false)
	if err := transfer(tx, byNode[0][1], byNode[1][1], 1); err != nil {
		t.Fatal(err)
	}
	tx.abort()
	after = forces()
	if after != before {
		t.Fatalf("abort forced the log: before %v after %v", before, after)
	}
}

// TestCrashFailsLockWaiters pins crash/lock-manager interaction: a
// transaction blocked in a lock wait on the crashing node gets
// ErrShutdown (retryable) immediately instead of waiting out its timeout.
func TestCrashFailsLockWaiters(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 10, 0)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byNode := findKeys(t, locate, 2, 1)
	key := byNode[1][0]

	waiter := co.begin(false) // older: wait-die lets it wait for the lock
	holder := co.begin(false) // younger: acquires the lock first
	if _, err := holder.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 1 WHERE id = %d", key)); err != nil {
		t.Fatal(err)
	}
	waiterErr := make(chan error, 1)
	go func() {
		_, err := waiter.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 2 WHERE id = %d", key))
		waiterErr <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	start := time.Now()
	c.Crash(locate(key))
	err := <-waiterErr
	if !errors.Is(err, txn.ErrShutdown) {
		t.Fatalf("lock waiter on crashed node got %v, want ErrShutdown", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("shutdown error must be retryable: %v", err)
	}
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("waiter took %v to fail after crash, want immediate", d)
	}
	waiter.abort()
	holder.abort()
	if _, err := co.RestartNode(locate(key)); err != nil {
		t.Fatal(err)
	}
}

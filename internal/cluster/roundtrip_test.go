package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"schism/internal/datum"
)

// TestLateReplyAfterRPCTimeout: a prepare that times out on a paused node
// is answered after Resume, and so is the abort queued behind it. Those
// late replies must reach no later request: every statement of the
// retries that follow on the same handle gets its own reply.
func TestLateReplyAfterRPCTimeout(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 8, 50*time.Millisecond)
	defer c.Close()
	home := findKeys(t, func(k int64) int { return strat.Locate(tid(k), nil)[0] }, 2, 1)
	accounts := []int64{home[0][0], home[1][0]}

	tx := co.begin(false)
	for _, id := range accounts {
		if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(0), datum.NewInt(id)); err != nil {
			t.Fatal(err)
		}
	}
	c.Pause(1)
	if err := tx.commit(); !errors.Is(err, ErrRPCTimeout) {
		t.Fatalf("commit with a paused participant: %v, want ErrRPCTimeout", err)
	}
	c.Resume(1)
	// The paused node now answers its prepare and abort into channels
	// nobody reads; wait until it has, so the retries run after the late
	// replies are written.
	n := c.nodes[1]
	deadline := time.Now().Add(5 * time.Second)
	for n.hasState(tx.ts) || len(n.reqCh) > 0 || n.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("resumed node never drained its queue")
		}
		time.Sleep(time.Millisecond)
	}

	for attempt := 0; attempt < 2; attempt++ {
		tx.reset()
		for i := 0; i < 4; i++ {
			for _, id := range accounts {
				rows, err := tx.ExecPrepared(selAccount, datum.NewInt(id))
				if err != nil || len(rows) != 1 || rows[0][0].I != id {
					t.Fatalf("retry %d: read of account %d got rows %v, err %v", attempt, id, rows, err)
				}
			}
		}
		if attempt == 0 {
			tx.abort()
		} else if err := tx.commit(); err != nil {
			t.Fatalf("retry %d: commit: %v", attempt, err)
		}
	}
}

// TestNoVoteOutlivesAbortFanout: one participant of a two-group
// transaction votes no. The abort fanout that follows reuses the Txn's
// reply buffer the vote loop is reading, and the abort's replies carry
// no error; the error Commit returns must still be the refusing vote's.
// Both participants must end rolled back, holding no state or lock.
func TestNoVoteOutlivesAbortFanout(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 8, 50*time.Millisecond)
	defer c.Close()
	home := findKeys(t, func(k int64) int { return strat.Locate(tid(k), nil)[0] }, 2, 1)
	accounts := []int64{home[0][0], home[1][0]}
	balance := func(id int64) int64 {
		rd := co.begin(false)
		rows, err := rd.ExecPrepared(selAccount, datum.NewInt(id))
		if err != nil || len(rows) != 1 {
			t.Fatalf("read of account %d: rows %v, err %v", id, rows, err)
		}
		if err := rd.commit(); err != nil {
			t.Fatal(err)
		}
		return rows[0][1].I
	}
	before := []int64{balance(accounts[0]), balance(accounts[1])}

	tx := co.begin(false)
	for i, id := range accounts {
		if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(int64(10*(2*i-1))), datum.NewInt(id)); err != nil {
			t.Fatal(err)
		}
	}
	// The first participant votes no, as after a failed statement; its
	// abort then succeeds like the other's.
	n := c.nodes[c.GroupLeader(tx.participants()[0])]
	n.tmu.Lock()
	n.txns[tx.ts].doomed = true
	n.tmu.Unlock()
	err := tx.commit()
	if err == nil || !strings.HasSuffix(err.Error(), "participant voted no: cluster: vote no") {
		t.Fatalf("commit with a no vote: %v, want the vote's error", err)
	}
	for _, nd := range c.nodes {
		if nd.hasState(tx.ts) || nd.locks.HeldLocks(tx.ts) != 0 {
			t.Errorf("node %d kept the aborted transaction's state or locks", nd.ID)
		}
	}
	for i, id := range accounts {
		if got := balance(id); got != before[i] {
			t.Errorf("account %d: balance %d after the abort, want %d", id, got, before[i])
		}
	}
}

// TestStatementRoundTripAllocs pins what a one-statement transaction
// costs end to end — begin, one prepared UPDATE, commit — on a group of
// one and on a group of three, on a handle begin makes afresh (no handle
// is idle, as for each of the first transactions that run at once): its
// plan inside it, one request slot and its reply channel reused by every
// message, and its participant list; on a group of three the log entry's redo
// list and after-image come on top. The participant state with its undo
// log and row image comes back from the node's free list, and the
// argument list, the bound constraints, the lock table's entry and key
// list, the reply buffer, the point lookup's key and a single target's
// rows cost nothing. TestRunTxnRoundTripAllocs pins the same transaction
// on a reused handle.
func TestStatementRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    int
		max  float64
	}{
		{"R=1", 1, 5},
		{"R=3", 3, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c *Cluster
			var co *Coordinator
			if tc.r == 1 {
				c, co, _ = newAccountCluster(t, 2, 8)
			} else {
				c, co, _ = newGroupCluster(t, 2, 3, 8, 0)
			}
			defer c.Close()
			run := func() {
				tx := co.begin(false)
				if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(1), datum.NewInt(3)); err != nil {
					t.Fatal(err)
				}
				if err := tx.commit(); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs > tc.max {
				t.Errorf("one-statement transaction allocates %v times, want <= %v", allocs, tc.max)
			}
		})
	}
}

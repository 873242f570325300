package cluster

import (
	"errors"
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

	tx := co.Begin()
	for _, id := range accounts {
		if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(0), datum.NewInt(id)); err != nil {
			t.Fatal(err)
		}
	}
	c.Pause(1)
	if err := tx.Commit(); !errors.Is(err, ErrRPCTimeout) {
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
			tx.Abort()
		} else if err := tx.Commit(); err != nil {
			t.Fatalf("retry %d: commit: %v", attempt, err)
		}
	}
}

// TestStatementRoundTripAllocs pins what a one-statement transaction
// costs end to end — Begin, one prepared UPDATE, Commit — on a group of
// one and on a group of three: the handle, the plan and its bound
// constraints, a request and a reply channel per message, the lock
// table's entries, the row images and the log. The participant list
// and a single target's rows cost nothing.
func TestStatementRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    int
		max  float64
	}{
		{"R=1", 1, 22},
		{"R=3", 3, 24},
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
			args := []datum.D{datum.NewInt(1), datum.NewInt(3)}
			run := func() {
				tx := co.Begin()
				if _, err := tx.ExecPrepared(moveAccount, args...); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
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

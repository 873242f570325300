package cluster

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"schism/internal/datum"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/txn"
)

// TestRunTxnRoundTripAllocs pins what a one-statement transaction costs
// through RunTxn, whose handle and participant state come back from the
// last transaction with every buffer they grew: nothing on a group of
// one, and on a group of three only the group log entry's redo list and
// the after-image in it, which the log keeps.
func TestRunTxnRoundTripAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    int
		max  float64
	}{
		{"R=1", 1, 0},
		{"R=3", 3, 2},
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
			amount, id := datum.NewInt(1), datum.NewInt(3)
			update := func(tx *Txn) error {
				_, err := tx.ExecPrepared(moveAccount, amount, id)
				return err
			}
			run := func() {
				if _, _, err := co.RunTxn(update); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(200, run); allocs > tc.max {
				t.Errorf("a one-UPDATE RunTxn allocates %v times, want <= %v", allocs, tc.max)
			}
		})
	}
}

// TestSelectRoundTripAllocs pins what a one-row SELECT copies through
// RunTxn on a group of one: the result slice and the row, at the width
// the SELECT returns. The WHERE clause reads the stored row in scratch
// that does not escape the call.
func TestSelectRoundTripAllocs(t *testing.T) {
	selBal := sqlparse.MustPrepare("SELECT bal FROM account WHERE id = ?")
	for _, tc := range []struct {
		name  string
		stmt  *sqlparse.Prepared
		width int
	}{
		{"star", selAccount, 2},
		{"projected", selBal, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, co, _ := newAccountCluster(t, 2, 8)
			defer c.Close()
			id := datum.NewInt(3)
			var rows []storage.Row
			run := func() {
				if _, _, err := co.RunTxn(func(tx *Txn) error {
					var err error
					rows, err = tx.ExecPrepared(tc.stmt, id)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if len(rows) != 1 || len(rows[0]) != tc.width || rows[0][tc.width-1].I != 1000 {
				t.Fatalf("rows %v, want one row of %d columns ending in balance 1000", rows, tc.width)
			}
			if allocs := testing.AllocsPerRun(200, run); allocs > 2 {
				t.Errorf("a one-row SELECT through RunTxn allocates %v times, want <= 2", allocs)
			}
		})
	}
}

// balances reads every account's balance from the logical snapshot.
func balances(t *testing.T, c *Cluster) map[int64]int64 {
	t.Helper()
	snap, err := Logical(c)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[int64]int64)
	snap.Visit("account", func(k int64, row storage.Row) { out[k] = row[1].I })
	return out
}

// drained waits until node n has answered everything queued on it.
func drained(t *testing.T, n *Node) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(n.reqCh) > 0 || n.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("node never drained its queue")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTimedOutHandleNotReused: a RunTxn whose prepare times out on a
// paused node retries and commits once the node is back. Its handle
// abandoned two slots the node answers into late, so RunTxn must not
// hand it to a later transaction; 200 later transactions each read both
// accounts and get their own rows.
func TestTimedOutHandleNotReused(t *testing.T) {
	c, co, strat := newChaosCluster(t, 2, 8, 50*time.Millisecond)
	defer c.Close()
	home := findKeys(t, func(k int64) int { return strat.Locate(tid(k), nil)[0] }, 2, 1)
	a, b := home[0][0], home[1][0]

	var abandoned *Txn
	attempt := 0
	_, aborts, err := co.RunTxn(func(tx *Txn) error {
		attempt++
		if attempt == 2 {
			c.Resume(1)
		}
		for _, m := range [][2]int64{{-5, a}, {5, b}} {
			if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(m[0]), datum.NewInt(m[1])); err != nil {
				return err
			}
		}
		if attempt == 1 {
			abandoned = tx
			c.Pause(1)
		}
		return nil
	})
	if err != nil || aborts != 1 {
		t.Fatalf("transfer across a pause: %d aborts, err %v; want 1 abort", aborts, err)
	}
	if !abandoned.abandoned {
		t.Fatal("the handle whose prepare timed out went back for reuse")
	}
	drained(t, c.nodes[1])

	for i := 0; i < 200; i++ {
		if _, _, err := co.RunTxn(func(tx *Txn) error {
			if tx == abandoned {
				t.Fatal("a later transaction got the handle with timed-out calls")
			}
			for _, id := range []int64{a, b} {
				rows, err := tx.ExecPrepared(selAccount, datum.NewInt(id))
				if err != nil || len(rows) != 1 || rows[0][0].I != id {
					t.Fatalf("transaction %d: read of account %d got rows %v, err %v", i, id, rows, err)
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := balances(t, c); got[a] != 995 || got[b] != 1005 {
		t.Errorf("balances %d and %d after one transfer of 5, want 995 and 1005", got[a], got[b])
	}
}

// TestWaitDieRetryOnRecycledState: a transaction dies by wait-die and
// its abort recycles its participant state; the retry, under the same
// timestamp, takes that very state off the free list. The state must
// carry the retry's epoch and nothing of the dead attempt.
func TestWaitDieRetryOnRecycledState(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 8)
	defer c.Close()
	n := c.nodes[0]
	older := co.begin(false) // an older holder: the younger requester dies
	if _, err := older.ExecPrepared(moveAccount, datum.NewInt(3), datum.NewInt(5)); err != nil {
		t.Fatal(err)
	}
	stateOf := func(tx *Txn) *txnState {
		n.tmu.Lock()
		defer n.tmu.Unlock()
		return n.txns[tx.ts]
	}
	var first *txnState
	attempt := 0
	_, aborts, err := co.RunTxn(func(tx *Txn) error {
		attempt++
		if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(7), datum.NewInt(2)); err != nil {
			return err
		}
		st := stateOf(tx)
		if attempt == 1 {
			first = st
			_, err := tx.ExecPrepared(moveAccount, datum.NewInt(1), datum.NewInt(5))
			if !errors.Is(err, txn.ErrDie) {
				t.Errorf("write behind an older holder: %v, want ErrDie", err)
			}
			if err := older.commit(); err != nil {
				t.Error(err)
			}
			return err
		}
		if st != first {
			t.Error("the retry got a new state, not the dead attempt's recycled one")
		}
		if st.epoch != 2 || st.doomed || st.prepared || len(st.undo) != 1 {
			t.Errorf("retry's state: epoch %d, doomed %v, prepared %v, %d undo records; want epoch 2 and the retry's one write",
				st.epoch, st.doomed, st.prepared, len(st.undo))
		}
		return nil
	})
	if err != nil || aborts != 1 {
		t.Fatalf("%d aborts, err %v; want 1 abort", aborts, err)
	}
	if got := balances(t, c); got[2] != 1007 || got[5] != 1003 {
		t.Errorf("balances %d and %d, want 1007 and 1003", got[2], got[5])
	}
}

// TestDepositionMidTxnKeepsLogicalConsistent: after 100 transfers have
// left recycled states on both leaders, group 0's leader is deposed
// between a transfer's statements and its commit, so its sweep rolls
// the attempt back on a recycled state and the retry runs on the new
// leader. 200 more transfers follow. Every group's copies must agree and
// the money must be conserved, the deposed transfer applied once.
func TestDepositionMidTxnKeepsLogicalConsistent(t *testing.T) {
	c, co, strat := newGroupCluster(t, 2, 3, 8, 10*time.Millisecond)
	defer c.Close()
	if !c.WaitForLeaders(2 * time.Second) {
		t.Fatal("no leaders")
	}
	byGroup := findKeys(t, func(k int64) int { return strat.Locate(tid(k), nil)[0] }, 2, 4)
	a, b := byGroup[0][0], byGroup[1][0]
	total := bankTotal(t, c)
	transfers := func(from, n int) {
		for i := from; i < from+n; i++ {
			src, dst := byGroup[i%2][i%4], byGroup[(i+1)%2][(i/2)%4]
			if _, _, err := co.RunTxn(func(tx *Txn) error { return transferPrepared(tx, src, dst, 1) }); err != nil {
				t.Fatal(err)
			}
		}
	}
	transfers(0, 100)
	before := balances(t, c)

	attempt := 0
	_, aborts, err := co.RunTxn(func(tx *Txn) error {
		attempt++
		if err := transferPrepared(tx, a, b, 3); err != nil {
			return err
		}
		if attempt > 1 {
			return nil
		}
		old := c.GroupLeader(0)
		c.IsolateNode(old)
		deadline := time.Now().Add(5 * time.Second)
		for c.GroupLeader(0) == old {
			if time.Now().After(deadline) {
				t.Fatal("no new leader for group 0")
			}
			time.Sleep(time.Millisecond)
		}
		c.HealNetwork()
		for c.nodes[old].hasState(tx.ts) {
			if time.Now().After(deadline) {
				t.Fatal("the deposed leader never swept the transaction")
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	})
	if err != nil || aborts == 0 {
		t.Fatalf("transfer across a deposition: %d aborts, err %v; want a retry", aborts, err)
	}
	if !c.WaitForLeaders(2 * time.Second) {
		t.Fatal("no leaders after the deposition")
	}
	if got := balances(t, c); got[a] != before[a]-3 || got[b] != before[b]+3 {
		t.Fatalf("balances %d and %d after one transfer of 3, want %d and %d", got[a], got[b], before[a]-3, before[b]+3)
	}
	transfers(100, 200)
	settleAndVerify(t, c, co, byGroup, total)
}

// transferPrepared moves amount from one account to another inside tx.
func transferPrepared(tx *Txn, from, to int64, amount int64) error {
	if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(-amount), datum.NewInt(from)); err != nil {
		return err
	}
	_, err := tx.ExecPrepared(moveAccount, datum.NewInt(amount), datum.NewInt(to))
	return err
}

// TestReturnedRowsOutliveLaterTxns: the rows a transaction's statements
// returned belong to the caller. They must read the same after 1 000
// later transactions reused the handle, its reply buffer and the nodes'
// participant states, and updated the rows read.
func TestReturnedRowsOutliveLaterTxns(t *testing.T) {
	c, co, _ := newAccountCluster(t, 2, 8)
	defer c.Close()
	var kept [][]storage.Row
	if _, _, err := co.RunTxn(func(tx *Txn) error {
		kept = kept[:0]
		for id := int64(0); id < 16; id++ {
			rows, err := tx.ExecPrepared(selAccount, datum.NewInt(id))
			if err != nil {
				return err
			}
			kept = append(kept, rows)
		}
		// Both nodes' rows, merged and cut to three.
		rows, err := tx.ExecPrepared(scanAccount, datum.NewInt(-1))
		kept = append(kept, rows)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	want := make([][]storage.Row, len(kept))
	for i, rows := range kept {
		for _, r := range rows {
			want[i] = append(want[i], slices.Clone(r))
		}
	}
	if len(want[16]) != 3 {
		t.Fatalf("scan returned %d rows, want 3", len(want[16]))
	}
	for i := 0; i < 1000; i++ {
		id := datum.NewInt(int64(i % 16))
		if _, _, err := co.RunTxn(func(tx *Txn) error {
			if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(1), id); err != nil {
				return err
			}
			_, err := tx.ExecPrepared(selAccount, id)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("returned rows changed under later transactions:\n got %v\nwant %v", kept, want)
	}
}

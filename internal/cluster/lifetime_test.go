package cluster

import (
	"sync/atomic"
	"testing"
	"time"

	"schism/internal/datum"
)

// TestRunTxnPanicReleases: fn panics while its transaction holds a row
// lock. The panic reaches RunTxn's caller, and on its way up the attempt
// is aborted: Drain returns at once, and a later transaction on the row
// commits without a retry and sees none of the panicked write.
func TestRunTxnPanicReleases(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 4)
	defer c.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RunTxn swallowed fn's panic")
			}
		}()
		co.RunTxn(func(tx *Txn) error {
			if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(-500), datum.NewInt(1)); err != nil {
				return err
			}
			panic("fn fails holding a row lock")
		})
	}()

	start := time.Now()
	if err := co.Drain(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Drain took %v after the panicked transaction", d)
	}
	_, aborts, err := co.RunTxn(func(tx *Txn) error {
		_, err := tx.ExecPrepared(moveAccount, datum.NewInt(7), datum.NewInt(1))
		return err
	})
	if err != nil || aborts != 0 {
		t.Fatalf("update of the panicked transaction's row: %d aborts, err %v; want a first-attempt commit", aborts, err)
	}
	if got := balances(t, c)[1]; got != 1007 {
		t.Fatalf("balance %d, want 1007: the panicked write was not rolled back", got)
	}
}

// TestDrainWaitsPastLockTimeout: Drain waits for a transaction that runs
// for five lock timeouts, rather than judging it leaked and returning
// while it still runs.
func TestDrainWaitsPastLockTimeout(t *testing.T) {
	const lockTimeout = 20 * time.Millisecond
	c, co := deploy(t, Config{Nodes: 1, LockTimeout: lockTimeout}, accountDB(t, 4), accountHash(1))
	defer c.Close()
	started, done := make(chan struct{}), make(chan error, 1)
	var ended atomic.Bool
	go func() {
		_, _, err := co.RunTxn(func(tx *Txn) error {
			if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(1), datum.NewInt(2)); err != nil {
				return err
			}
			close(started)
			time.Sleep(5 * lockTimeout)
			ended.Store(true)
			return nil
		})
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("long transaction: %v", err)
	}
	if err := co.Drain(); err != nil {
		t.Fatal(err)
	}
	if !ended.Load() {
		t.Fatal("Drain returned while the transaction it snapshotted still ran")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

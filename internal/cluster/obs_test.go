package cluster

import (
	"testing"
	"time"

	"schism/internal/datum"
	"schism/internal/obs"
)

// TestObsAddsNoAllocations pins that metrics cost a transaction no
// allocation: the same one-node prepared UPDATE committed through RunTxn
// allocates as often on a cluster with a registry as on one without.
// TestDisabledPathAllocFree in internal/obs pins the nil side alone; this
// is the enabled side, so a later phase metric cannot slip an allocation
// onto the hot path.
func TestObsAddsNoAllocations(t *testing.T) {
	allocs := func(reg *obs.Registry) float64 {
		c, co := deploy(t, Config{Nodes: 1, LockTimeout: 2 * time.Second, Obs: reg},
			accountDB(t, 4), accountHash(1))
		defer c.Close()
		amount, id := datum.NewInt(1), datum.NewInt(2)
		update := func(tx *Txn) error {
			_, err := tx.ExecPrepared(moveAccount, amount, id)
			return err
		}
		return testing.AllocsPerRun(200, func() {
			if _, _, err := co.RunTxn(update); err != nil {
				t.Fatal(err)
			}
		})
	}
	off, on := allocs(nil), allocs(obs.NewRegistry())
	if on != off {
		t.Errorf("a committed UPDATE allocates %v times with a registry, %v without; want equal", on, off)
	}
	t.Logf("allocs per committed UPDATE: %v without a registry, %v with one", off, on)
}

// TestStmtTargetsCounted: the coordinator counts the partitions each
// statement is sent to and those whose reply matched no row. A key-range
// SELECT that matches one row, broadcast under Hash at k = 4, reads 4
// targets and 3 empty ones.
func TestStmtTargetsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	c, co := deploy(t, Config{Nodes: 4, LockTimeout: 2 * time.Second, Obs: reg},
		accountDB(t, 16), accountHash(4))
	defer c.Close()
	targets, empty := reg.Counter("stmt.targets"), reg.Counter("stmt.empty_targets")
	t0, e0 := targets.Value(), empty.Value()
	if _, _, err := co.RunTxn(func(tx *Txn) error {
		rows, err := tx.Exec("SELECT * FROM account WHERE id BETWEEN 5 AND 5")
		if err == nil && len(rows) != 1 {
			t.Errorf("%d rows, want 1", len(rows))
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, gotEmpty := targets.Value()-t0, empty.Value()-e0; got != 4 || gotEmpty != 3 {
		t.Errorf("broadcast read of one row: %d targets, %d empty; want 4 and 3", got, gotEmpty)
	}
}

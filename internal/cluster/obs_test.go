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

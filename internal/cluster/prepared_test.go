package cluster

import (
	"reflect"
	"sync"
	"testing"

	"schism/internal/datum"
	"schism/internal/sqlparse"
)

var (
	selAccount  = sqlparse.MustPrepare("SELECT * FROM account WHERE id = ?")
	moveAccount = sqlparse.MustPrepare("UPDATE account SET bal = bal + ? WHERE id = ?")
	scanAccount = sqlparse.MustPrepare("SELECT id FROM account WHERE bal != ? ORDER BY id LIMIT 3")
)

func TestExecPrepared(t *testing.T) {
	c, co, _ := newAccountCluster(t, 2, 10)
	defer c.Close()
	tx := co.begin(false)
	if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(-100), datum.NewInt(3)); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.ExecPrepared(selAccount, datum.NewInt(3))
	if err != nil || len(rows) != 1 || rows[0][1].I != 900 {
		t.Fatalf("rows %v err %v, want balance 900", rows, err)
	}
	if tx.span() != 1 {
		t.Errorf("point statements touched %d nodes, want 1", tx.span())
	}
	// A statement no key constrains broadcasts like its ad-hoc twin, and
	// its LIMIT holds across both nodes' rows.
	rows, err = tx.ExecPrepared(scanAccount, datum.NewInt(900))
	want, werr := tx.Exec("SELECT id FROM account WHERE bal != 900 ORDER BY id LIMIT 3")
	if err != nil || werr != nil || len(rows) != 3 || !reflect.DeepEqual(rows, want) {
		t.Fatalf("scan rows %v err %v, ad-hoc rows %v err %v", rows, err, want, werr)
	}
	if _, err := tx.ExecPrepared(selAccount); err == nil {
		t.Error("ExecPrepared accepted 0 arguments for 1 placeholder")
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedSharedAcrossClients runs one *Prepared from 8 client
// goroutines at once (meaningful under -race): a Prepared is immutable
// and every call brings its own arguments, so the transfers conserve
// money — on single nodes and through replication groups alike.
func TestPreparedSharedAcrossClients(t *testing.T) {
	t.Run("R=1", func(t *testing.T) {
		c, co, _ := newAccountCluster(t, 2, 8)
		defer c.Close()
		sharePrepared(t, co)
	})
	t.Run("R=3", func(t *testing.T) {
		c, co, _ := newGroupCluster(t, 2, 3, 8, 0)
		defer c.Close()
		sharePrepared(t, co)
	})
}

func sharePrepared(t *testing.T, co *Coordinator) {
	const clients, rounds = 8, 40
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				from, to := int64((cl+i)%16), int64((cl+3*i+1)%16)
				if from == to {
					continue
				}
				_, _, err := co.RunTxn(func(tx *Txn) error {
					if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(-1), datum.NewInt(from)); err != nil {
						return err
					}
					if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(1), datum.NewInt(to)); err != nil {
						return err
					}
					_, err := tx.ExecPrepared(selAccount, datum.NewInt(to))
					return err
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	tx := co.begin(false)
	rows, err := tx.Exec("SELECT * FROM account")
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, r := range rows {
		total += r[1].I
	}
	if len(rows) != 16 || total != 16*1000 {
		t.Fatalf("%d accounts holding %d, want 16 holding 16000", len(rows), total)
	}
	tx.abort()
}

// TestBeginCommitAllocs: an empty transaction at R = 1 allocates its handle
// and nothing else, in particular no math/rand source (which used to be
// 4.9 KB of every transaction, drawn from by almost none).
func TestBeginCommitAllocs(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 1)
	defer c.Close()
	allocs := testing.AllocsPerRun(200, func() {
		if err := co.begin(false).commit(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("begin + commit of an empty transaction allocates %v times, want <= 1", allocs)
	}
}

package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/txn"
	"schism/internal/workload"
)

var (
	insWide = sqlparse.MustPrepare("INSERT INTO wide (id, a, b, c, d, e, f, g) VALUES (?, ?, ?, ?, ?, ?, ?, ?)")
	// FOR UPDATE keeps the read on the locked path at R = 3 too: a
	// follower may not yet have applied the INSERT a one-statement
	// transaction committed just before.
	selWide  = sqlparse.MustPrepare("SELECT * FROM wide WHERE id = ? FOR UPDATE")
	rangeAcc = sqlparse.MustPrepare("SELECT id, bal FROM account WHERE id >= ? AND id < ? ORDER BY id")
)

// wideDB is accountDB plus an empty eight-column table "wide", so one
// transaction binds statements of eight, two and one arguments in turn.
func wideDB(t *testing.T, accounts int) *storage.Database {
	db := accountDB(t, accounts)
	cols := []storage.Column{{Name: "id", Type: storage.IntCol}}
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		cols = append(cols, storage.Column{Name: name, Type: storage.IntCol})
	}
	db.MustCreateTable(&storage.TableSchema{Name: "wide", Columns: cols, Key: "id"})
	return db
}

// planStmt is one statement of TestPlanReuseAcrossStatements.
type planStmt struct {
	p    *sqlparse.Prepared
	args []int64
}

// planStmts lists four rounds of an 8-column INSERT, a one-key SELECT of
// the new row, an UPDATE and a key-range SELECT.
func planStmts() []planStmt {
	var out []planStmt
	for r := int64(0); r < 4; r++ {
		out = append(out,
			planStmt{insWide, []int64{100 + r, r, 2 * r, 3 * r, 4 * r, 5 * r, 6 * r, 7 * r}},
			planStmt{selWide, []int64{100 + r}},
			planStmt{moveAccount, []int64{10 * (r + 1), r}},
			planStmt{rangeAcc, []int64{r, r + 5}},
		)
	}
	return out
}

// TestPlanReuseAcrossStatements runs planStmts in one Txn, which binds
// every statement into the same plan, and again one statement per fresh
// Txn on a second cluster. The caller reuses one argument slice and
// overwrites it after each statement returns, and the one-Txn run dies
// once by wait-die midway and is retried whole on the same handle. Each
// statement's rows, the captured access set and the logical snapshot
// must be the same both ways.
func TestPlanReuseAcrossStatements(t *testing.T) {
	for _, r := range []int{1, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			stmts := planStmts()
			oneRows, oneAccs, oneDigest := runPlanStmts(t, r, stmts, true)
			eachRows, eachAccs, eachDigest := runPlanStmts(t, r, stmts, false)
			if len(eachRows[1]) != 1 || len(eachRows[3]) != 5 {
				t.Fatalf("one-key SELECT read %d rows, key-range SELECT %d; want 1 and 5", len(eachRows[1]), len(eachRows[3]))
			}
			for i := range stmts {
				if !reflect.DeepEqual(oneRows[i], eachRows[i]) {
					t.Errorf("statement %d (%s): rows %v in one Txn, %v one per Txn",
						i, stmts[i].p.SQL(), oneRows[i], eachRows[i])
				}
			}
			if !reflect.DeepEqual(oneAccs, eachAccs) {
				t.Errorf("captured %v in one Txn, %v one per Txn", oneAccs, eachAccs)
			}
			if oneDigest != eachDigest {
				t.Errorf("logical digest %x in one Txn, %x one per Txn", oneDigest, eachDigest)
			}
		})
	}
}

// runPlanStmts runs stmts on a fresh cluster of two groups of r members
// — in one Txn that wait-die aborts once, or one statement per Txn —
// and returns each statement's rows, the sorted captured accesses and
// the logical digest.
func runPlanStmts(t *testing.T, r int, stmts []planStmt, oneTxn bool) ([][]storage.Row, []workload.Access, uint64) {
	t.Helper()
	strat := &partition.Hash{K: 2, KeyColumn: map[string]string{"account": "id", "wide": "id"}}
	c, co := deploy(t, Config{
		Nodes: 2 * r, ReplicationFactor: r, LockTimeout: 2 * time.Second,
		ReplHeartbeat: 2 * time.Millisecond, ReplElection: 25 * time.Millisecond, ReplSeed: 7,
	}, wideDB(t, 16), strat)
	defer c.Close()
	if r > 1 && !c.WaitForLeaders(2*time.Second) {
		t.Fatal("no leaders")
	}
	var accs []workload.Access
	co.SetCapture(func(a []workload.Access) { accs = append(accs, a...) })

	rows := make([][]storage.Row, len(stmts))
	args := make([]datum.D, 0, 8)
	exec := func(tx *Txn, s planStmt) ([]storage.Row, error) {
		args = args[:0]
		for _, v := range s.args {
			args = append(args, datum.NewInt(v))
		}
		out, err := tx.ExecPrepared(s.p, args...)
		full := args[:cap(args)]
		for i := range full {
			full[i] = datum.NewInt(-1)
		}
		return out, err
	}
	if oneTxn {
		// blocker is older than the Txn below and holds a row of wide no
		// statement scans, so the Txn's locking read of it dies at once.
		blocker := co.begin(false)
		if _, err := exec(blocker, planStmt{insWide, []int64{999, 1, 1, 1, 1, 1, 1, 1}}); err != nil {
			t.Fatal(err)
		}
		attempt := 0
		_, aborts, err := co.RunTxn(func(tx *Txn) error {
			attempt++
			for i, s := range stmts {
				out, err := exec(tx, s)
				if err != nil {
					return err
				}
				rows[i] = out
				if attempt == 1 && i == len(stmts)/2 {
					_, err := exec(tx, planStmt{selWide, []int64{999}})
					if !errors.Is(err, txn.ErrDie) {
						t.Errorf("locking read behind an older writer: %v, want ErrDie", err)
					}
					blocker.abort()
					return err
				}
			}
			return nil
		})
		if err != nil || aborts != 1 {
			t.Fatalf("one-Txn run: %d aborts, err %v; want 1 abort", aborts, err)
		}
	} else {
		for i, s := range stmts {
			tx := co.begin(false)
			out, err := exec(tx, s)
			if err != nil {
				t.Fatalf("statement %d: %v", i, err)
			}
			rows[i] = out
			if err := tx.commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := co.Drain(); err != nil {
		t.Fatal(err)
	}
	snap, err := Logical(c)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(accs, func(a, b workload.Access) int {
		return cmp.Or(cmp.Compare(a.Tuple.Table, b.Tuple.Table), cmp.Compare(a.Tuple.Key, b.Tuple.Key))
	})
	return rows, accs, snap.Digest()
}

// TestTxnBindsOnePlan pins that a Txn binds every prepared statement into
// its one plan: 20 point UPDATEs of one row, each passed its own argument
// list, allocate what one does: the node's recycled participant state
// holds the undo list and reads the undo images into its slab. A plan or
// a constraint array per statement, an argument list that escapes, or a
// row per undo image would add 19 each.
func TestTxnBindsOnePlan(t *testing.T) {
	c, co, _ := newAccountCluster(t, 2, 8)
	defer c.Close()
	updates := func(n int) func() {
		return func() {
			tx := co.begin(false)
			for i := 0; i < n; i++ {
				if _, err := tx.ExecPrepared(moveAccount, datum.NewInt(1), datum.NewInt(3)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	updates(20)()
	one := testing.AllocsPerRun(200, updates(1))
	twenty := testing.AllocsPerRun(200, updates(20))
	if twenty > one {
		t.Errorf("20 statements allocate %v times, one %v: want no more", twenty, one)
	}
}

package cluster

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"schism/internal/datum"

	"schism/internal/cluster/repl"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
)

func tid(k int64) workload.TupleID { return workload.TupleID{Table: "account", Key: k} }

// accountDB is the single-node image of the bank: accounts 0 to n-1,
// each holding 1000.
func accountDB(t testing.TB, n int) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	tbl := db.MustCreateTable(&storage.TableSchema{
		Name: "account",
		Columns: []storage.Column{
			{Name: "id", Type: storage.IntCol},
			{Name: "bal", Type: storage.IntCol},
		},
		Key: "id",
	})
	for id := int64(0); id < int64(n); id++ {
		if err := tbl.Insert(storage.Row{datum.NewInt(id), datum.NewInt(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// deploy is Deploy that fails the test on error.
func deploy(t testing.TB, cfg Config, db *storage.Database, strat partition.Strategy) (*Cluster, *Coordinator) {
	t.Helper()
	c, co, err := Deploy(cfg, db, strat)
	if err != nil {
		t.Fatal(err)
	}
	return c, co
}

// accountHash places accounts by hash of their id over k partitions.
func accountHash(k int) *partition.Hash {
	return &partition.Hash{K: k, KeyColumn: map[string]string{"account": "id"}}
}

// newAccountCluster builds an n-node cluster where table "account" is hash
// partitioned by id: key k lives on the node Hash strategy picks for it.
func newAccountCluster(t testing.TB, n int, keysPerNode int) (*Cluster, *Coordinator, *partition.Hash) {
	t.Helper()
	strat := accountHash(n)
	c, co := deploy(t, Config{Nodes: n, LockTimeout: 2 * time.Second}, accountDB(t, n*keysPerNode), strat)
	return c, co, strat
}

func TestSingleNodeTxn(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 10)
	defer c.Close()
	tx := co.begin(false)
	rows, err := tx.Exec("SELECT * FROM account WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][1].I != 1000 {
		t.Fatalf("rows: %v", rows)
	}
	if _, err := tx.Exec("UPDATE account SET bal = bal - 100 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := co.begin(false)
	rows, err = tx2.Exec("SELECT * FROM account WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][1].I != 900 {
		t.Fatalf("bal = %v, want 900", rows[0][1])
	}
	if err := tx2.commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 10)
	defer c.Close()
	tx := co.begin(false)
	if _, err := tx.Exec("UPDATE account SET bal = 0 WHERE id = 5"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("DELETE FROM account WHERE id = 6"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO account (id, bal) VALUES (100, 7)"); err != nil {
		t.Fatal(err)
	}
	tx.abort()

	check := co.begin(false)
	defer check.abort()
	rows, err := check.Exec("SELECT * FROM account WHERE id = 5")
	if err != nil || len(rows) != 1 || rows[0][1].I != 1000 {
		t.Fatalf("update not rolled back: %v %v", rows, err)
	}
	rows, _ = check.Exec("SELECT * FROM account WHERE id = 6")
	if len(rows) != 1 {
		t.Fatal("delete not rolled back")
	}
	rows, _ = check.Exec("SELECT * FROM account WHERE id = 100")
	if len(rows) != 0 {
		t.Fatal("insert not rolled back")
	}
}

func TestDistributedTxn2PC(t *testing.T) {
	c, co, strat := newAccountCluster(t, 3, 20)
	defer c.Close()
	// Find two ids on different nodes.
	a, b := int64(-1), int64(-1)
	for k := int64(0); k < 60 && b < 0; k++ {
		home := strat.Locate(tid(k), nil)[0]
		if a < 0 {
			a = k
			continue
		}
		if home != strat.Locate(tid(a), nil)[0] {
			b = k
		}
	}
	if b < 0 {
		t.Fatal("no cross-node pair found")
	}
	tx := co.begin(false)
	if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal - 100 WHERE id = %d", a)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 100 WHERE id = %d", b)); err != nil {
		t.Fatal(err)
	}
	if tx.span() != 2 {
		t.Fatalf("touched %d nodes, want 2", tx.span())
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	// Verify both sides.
	check := co.begin(false)
	defer check.abort()
	rows, _ := check.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", a))
	if rows[0][1].I != 900 {
		t.Fatalf("a bal = %v", rows[0][1])
	}
	rows, _ = check.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", b))
	if rows[0][1].I != 1100 {
		t.Fatalf("b bal = %v", rows[0][1])
	}
}

func TestVoteNoRollsBackAllParticipants(t *testing.T) {
	c, co, strat := newAccountCluster(t, 2, 10)
	defer c.Close()
	var onA, onB int64 = -1, -1
	for k := int64(0); k < 20; k++ {
		if strat.Locate(tid(k), nil)[0] == 0 && onA < 0 {
			onA = k
		}
		if strat.Locate(tid(k), nil)[0] == 1 && onB < 0 {
			onB = k
		}
	}
	tx := co.begin(false)
	if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = 1 WHERE id = %d", onA)); err != nil {
		t.Fatal(err)
	}
	// Duplicate-key insert fails on node B, dooming the transaction there.
	if _, err := tx.Exec(fmt.Sprintf("INSERT INTO account (id, bal) VALUES (%d, 5)", onB)); err == nil {
		t.Fatal("duplicate insert should fail")
	}
	if err := tx.commit(); err == nil {
		t.Fatal("commit of failed txn should error")
	}
	// Node A's update must be rolled back.
	check := co.begin(false)
	defer check.abort()
	rows, _ := check.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", onA))
	if rows[0][1].I != 1000 {
		t.Fatalf("participant A not rolled back: %v", rows[0][1])
	}
}

// TestMoneyConservation runs concurrent cross-node transfers and checks
// the invariant sum(bal) = const, exercising 2PL + 2PC + wait-die retries.
func TestMoneyConservation(t *testing.T) {
	c, co, _ := newAccountCluster(t, 2, 10) // 20 accounts, small = contended
	defer c.Close()
	const workers = 8
	const transfers = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				from := (seed*31 + int64(i)*7) % 20
				to := (from + 1 + int64(i)%19) % 20
				_, _, err := co.RunTxn(func(tx *Txn) error {
					if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal - 10 WHERE id = %d", from)); err != nil {
						return err
					}
					_, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 10 WHERE id = %d", to))
					return err
				})
				if err != nil {
					t.Errorf("transfer failed permanently: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if total := bankTotal(t, c); total != 20*1000 {
		t.Fatalf("money not conserved: total = %d, want 20000", total)
	}
}

func TestBroadcastQuery(t *testing.T) {
	c, co, _ := newAccountCluster(t, 4, 5)
	defer c.Close()
	tx := co.begin(false)
	defer tx.abort()
	// No constraint on the key: router must broadcast and union.
	rows, err := tx.Exec("SELECT * FROM account WHERE bal = 1000")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("broadcast found %d rows, want 20", len(rows))
	}
	if tx.span() != 4 {
		t.Fatalf("touched %d, want 4", tx.span())
	}
}

func TestRangeScanAndLimit(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 50)
	defer c.Close()
	tx := co.begin(false)
	defer tx.abort()
	rows, err := tx.Exec("SELECT * FROM account WHERE id BETWEEN 10 AND 19 ORDER BY id LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[0][0].I != 10 || rows[4][0].I != 14 {
		t.Fatalf("scan rows: %v", rows)
	}
	// DESC ordering.
	rows, err = tx.Exec("SELECT * FROM account WHERE id BETWEEN 10 AND 19 ORDER BY id DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].I != 19 || rows[1][0].I != 18 {
		t.Fatalf("desc rows: %v", rows)
	}
}

func TestProjection(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 5)
	defer c.Close()
	tx := co.begin(false)
	defer tx.abort()
	rows, err := tx.Exec("SELECT bal FROM account WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0].I != 1000 {
		t.Fatalf("projected: %v", rows)
	}
}

func TestUnsupportedStatement(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 5)
	defer c.Close()
	tx := co.begin(false)
	defer tx.abort()
	if _, err := tx.Exec("SELECT * FROM nosuch WHERE id = 1"); err == nil {
		t.Error("missing table should error")
	}
	tx2 := co.begin(false)
	defer tx2.abort()
	if _, err := tx2.Exec("SELECT * FROM account JOIN account ON account.id = account.id"); err == nil {
		t.Error("join should error at runtime")
	}
}

// TestBuildRedoDedupesWriteSet pins the redo a replicated prepare or
// one-round commit ships: one mutation per key written, in first-write
// order, carrying the row image after the transaction's last statement,
// and no row for a key it deleted.
func TestBuildRedoDedupesWriteSet(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 10)
	defer c.Close()
	tx := co.begin(false)
	defer tx.abort()
	for _, sql := range []string{
		"UPDATE account SET bal = 7 WHERE id = 1",
		"INSERT INTO account (id, bal) VALUES (100, 5)",
		"UPDATE account SET bal = 8 WHERE id = 1",
		"DELETE FROM account WHERE id = 2",
		"UPDATE account SET bal = 9 WHERE id = 3",
		"DELETE FROM account WHERE id = 3",
	} {
		if _, err := tx.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	n := c.Node(0)
	n.tmu.Lock()
	redo := n.buildRedoLocked(n.txns[tx.ts].undo)
	n.tmu.Unlock()
	want := []repl.Mutation{
		{Table: "account", Key: 1, Row: []datum.D{datum.NewInt(1), datum.NewInt(8)}},
		{Table: "account", Key: 100, Row: []datum.D{datum.NewInt(100), datum.NewInt(5)}},
		{Table: "account", Key: 2},
		{Table: "account", Key: 3},
	}
	if !reflect.DeepEqual(redo, want) {
		t.Fatalf("redo write set:\n got %v\nwant %v", redo, want)
	}
}

// TestSplitDatabaseAllocs pins SplitDatabase to a per-table cost: a node
// that owns no rows allocates as much for 10 000 rows as for 1 000, so
// locating a row boxes nothing (one RowView per row was one object more
// per row).
func TestSplitDatabaseAllocs(t *testing.T) {
	strat := &partition.Lookup{K: 2, Default: []int{1}}
	allocs := func(n int) float64 {
		db := accountDB(t, n)
		return testing.AllocsPerRun(5, func() {
			if got := SplitDatabase(db, strat, 0).NumTuples(); got != 0 {
				t.Fatalf("node 0 holds %d rows, want 0", got)
			}
		})
	}
	if small, large := allocs(1000), allocs(10000); large != small {
		t.Errorf("splitting 10 000 rows allocates %v objects, 1 000 rows %v: want equal", large, small)
	}
}

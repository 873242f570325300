package live

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/storage"
	"schism/internal/workload"
)

func accountSchema() *storage.TableSchema {
	return &storage.TableSchema{
		Name: "account",
		Columns: []storage.Column{
			{Name: "id", Type: storage.IntCol},
			{Name: "bal", Type: storage.IntCol},
		},
		Key: "id",
	}
}

// accountDB is the single-node image of the bank: accounts 0 to n-1,
// each holding 1000.
func accountDB(t testing.TB, n int) *storage.Database {
	t.Helper()
	db := storage.NewDatabase()
	tbl := db.MustCreateTable(accountSchema())
	for k := 0; k < n; k++ {
		if err := tbl.Insert(storage.Row{datum.NewInt(int64(k)), datum.NewInt(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// deployRoundRobin deploys `total` accounts on cfg's groups, account k on
// group k mod groups, routed by a deployed sync-lookup strategy.
func deployRoundRobin(t testing.TB, cfg cluster.Config, groups, total int) (*cluster.Cluster, *cluster.Coordinator, map[string]*SyncTable) {
	t.Helper()
	full := accountDB(t, total)
	strat, tables := DeployLookup(full, groups, map[string]string{"account": "id"},
		func(id workload.TupleID) []int { return []int{int(id.Key) % groups} })
	c, co, err := cluster.Deploy(cfg, full, strat)
	if err != nil {
		t.Fatal(err)
	}
	return c, co, tables
}

// newMigrationCluster builds an n-node cluster with `total` account rows
// placed round-robin, routed by a deployed sync-lookup strategy.
func newMigrationCluster(t testing.TB, n int, total int) (*cluster.Cluster, *cluster.Coordinator, map[string]*SyncTable) {
	t.Helper()
	return deployRoundRobin(t, cluster.Config{Nodes: n, LockTimeout: 2 * time.Second}, n, total)
}

func countRows(c *cluster.Cluster, node int) int {
	n := 0
	c.Node(node).DB().Table("account").ScanAll(func(int64, storage.Row) bool { n++; return true })
	return n
}

func TestExecutorMovesTuplesAndFlipsRouting(t *testing.T) {
	c, co, tables := newMigrationCluster(t, 2, 10)
	defer c.Close()
	exec := NewExecutor(co, map[string]*storage.TableSchema{"account": accountSchema()}, tables)

	// Move every even key (node 0) to node 1; replicate key 1 on both.
	plan := BuildPlan(
		[]workload.TupleID{
			{Table: "account", Key: 0}, {Table: "account", Key: 2},
			{Table: "account", Key: 4}, {Table: "account", Key: 1},
		},
		func(id workload.TupleID) []int {
			p, _ := tables["account"].Locate(id.Key)
			return p
		},
		[][]int{{1}, {1}, {1}, {0, 1}},
	)
	if len(plan.Moves) != 4 || plan.Copies != 4 || plan.Drops != 3 {
		t.Fatalf("plan = %+v", plan)
	}
	stats := exec.Apply(plan)
	if stats.Moved != 4 || stats.Skipped != 0 || stats.FailedBatches != 0 {
		t.Fatalf("stats = %v", stats)
	}

	// Physical placement: node 0 started with evens {0,2,4,6,8} and node 1
	// with odds. Node 0 keeps {6,8} and gains a replica of 1; node 1 keeps
	// odds and gains {0,2,4}.
	if got := countRows(c, 0); got != 3 {
		t.Fatalf("node 0 has %d rows, want 3", got)
	}
	if got := countRows(c, 1); got != 8 {
		t.Fatalf("node 1 has %d rows, want 8", got)
	}
	// Routing flipped.
	if p, _ := tables["account"].Locate(0); len(p) != 1 || p[0] != 1 {
		t.Fatalf("key 0 routes to %v, want [1]", p)
	}
	if p, _ := tables["account"].Locate(1); len(p) != 2 {
		t.Fatalf("key 1 routes to %v, want [0 1]", p)
	}
	// Rows remain reachable through SQL (moved, replicated, untouched).
	readKeys(t, co, 0, 1, 3, 4)
	// A write to the replicated key must reach both nodes.
	_, _, err := co.RunTxn(func(tx *cluster.Txn) error {
		_, err := tx.Exec("UPDATE account SET bal = 7 WHERE id = 1")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 2; node++ {
		row, ok := c.Node(node).DB().Table("account").Get(1)
		if !ok || row[1].I != 7 {
			t.Fatalf("node %d replica of key 1 = %v (ok=%v)", node, row, ok)
		}
	}
}

// TestExecutorMovesTuplesOnReplicatedCluster re-runs the basic migration
// on a group-replicated cluster: partition ids are GROUP ids, so every
// copy/delete in the plan must route through the group leaders and
// replicate to every member before the routing flip becomes visible.
func TestExecutorMovesTuplesOnReplicatedCluster(t *testing.T) {
	const groups, r, total = 2, 2, 8
	c, co, tables := deployRoundRobin(t, cluster.Config{
		Nodes:             groups * r,
		ReplicationFactor: r,
		LockTimeout:       2 * time.Second,
		ReplHeartbeat:     2 * time.Millisecond,
		ReplElection:      25 * time.Millisecond,
		ReplSeed:          5,
	}, groups, total)
	defer c.Close()

	exec := NewExecutor(co, map[string]*storage.TableSchema{"account": accountSchema()}, tables)
	// Move keys 0 and 2 from group 0 to group 1.
	plan := BuildPlan(
		[]workload.TupleID{{Table: "account", Key: 0}, {Table: "account", Key: 2}},
		func(id workload.TupleID) []int {
			p, _ := tables["account"].Locate(id.Key)
			return p
		},
		[][]int{{1}, {1}},
	)
	stats := exec.Apply(plan)
	if stats.Moved != 2 || stats.Skipped != 0 || stats.FailedBatches != 0 {
		t.Fatalf("stats = %v", stats)
	}
	if err := co.Drain(); err != nil {
		t.Fatal(err)
	}
	if !c.WaitReplicated(5 * time.Second) {
		t.Fatal("replicas did not converge after migration")
	}
	// EVERY member of group 1 holds the moved keys; no member of group 0.
	for node := 0; node < groups*r; node++ {
		g := node / r
		for _, k := range []int64{0, 2} {
			_, ok := c.Node(node).DB().Table("account").Get(k)
			if ok != (g == 1) {
				t.Fatalf("node %d (group %d) has key %d: %v, want %v", node, g, k, ok, g == 1)
			}
		}
	}
	// Routing flipped, and the rows stay reachable through SQL.
	if p, _ := tables["account"].Locate(0); len(p) != 1 || p[0] != 1 {
		t.Fatalf("key 0 routes to %v, want [1]", p)
	}
	readKeys(t, co, 0, 2, 1)
}

// readKeys reads each key in one transaction and fails the test unless
// every key has its row, still holding 1000.
func readKeys(t *testing.T, co *cluster.Coordinator, keys ...int64) {
	t.Helper()
	if _, _, err := co.RunTxn(func(tx *cluster.Txn) error {
		for _, key := range keys {
			rows, err := tx.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", key))
			if err != nil || len(rows) != 1 || rows[0][1].I != 1000 {
				return fmt.Errorf("key %d after migration: rows=%v err=%v", key, rows, err)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestExecutorSkipsVanishedTuples(t *testing.T) {
	c, co, tables := newMigrationCluster(t, 2, 4)
	defer c.Close()
	// Delete key 0 out from under the plan.
	if _, _, err := co.RunTxn(func(tx *cluster.Txn) error {
		_, err := tx.Exec("DELETE FROM account WHERE id = 0")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(co, map[string]*storage.TableSchema{"account": accountSchema()}, tables)
	plan := BuildPlan(
		[]workload.TupleID{{Table: "account", Key: 0}, {Table: "account", Key: 2}},
		func(id workload.TupleID) []int {
			p, _ := tables["account"].Locate(id.Key)
			return p
		},
		[][]int{{1}, {1}},
	)
	stats := exec.Apply(plan)
	if stats.Moved != 1 || stats.Skipped != 1 {
		t.Fatalf("stats = %v", stats)
	}
	// The vanished tuple's routing entry must NOT have flipped.
	if p, _ := tables["account"].Locate(0); len(p) != 1 || p[0] != 0 {
		t.Fatalf("key 0 routes to %v, want untouched [0]", p)
	}
}

// TestExecutorUnderTraffic migrates half the keys while transfer traffic
// runs, then checks money conservation and placement: migration
// transactions must interleave with 2PL/2PC traffic without corrupting
// state.
func TestExecutorUnderTraffic(t *testing.T) {
	const total = 40
	c, co, tables := newMigrationCluster(t, 2, total)
	defer c.Close()
	exec := NewExecutor(co, map[string]*storage.TableSchema{"account": accountSchema()}, tables)
	exec.BatchSize = 4

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
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
				from, to := rng.Intn(total), rng.Intn(total)
				if from == to {
					continue
				}
				_, _, err := co.RunTxn(func(tx *cluster.Txn) error {
					if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal - 5 WHERE id = %d", from)); err != nil {
						return err
					}
					_, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 5 WHERE id = %d", to))
					return err
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(int64(w))
	}

	// Migrate all even keys (home node 0) to node 1 while transfers run.
	var ids []workload.TupleID
	var target [][]int
	for k := 0; k < total; k += 2 {
		ids = append(ids, workload.TupleID{Table: "account", Key: int64(k)})
		target = append(target, []int{1})
	}
	plan := BuildPlan(ids, func(id workload.TupleID) []int {
		p, _ := tables["account"].Locate(id.Key)
		return p
	}, target)
	stats := exec.Apply(plan)
	close(stop)
	wg.Wait()
	if stats.Moved != total/2 || stats.FailedBatches != 0 {
		t.Fatalf("stats = %v", stats)
	}
	// Node 0 held exactly the even keys, all of which moved.
	if got := countRows(c, 0); got != 0 {
		t.Fatalf("node 0 has %d rows, want 0", got)
	}
	if got := countRows(c, 1); got != total {
		t.Fatalf("node 1 has %d rows, want %d", got, total)
	}
	var sum int64
	for node := 0; node < 2; node++ {
		c.Node(node).DB().Table("account").ScanAll(func(_ int64, row storage.Row) bool {
			sum += row[1].I
			return true
		})
	}
	if sum != int64(total)*1000 {
		t.Fatalf("money not conserved across migration: %d", sum)
	}
}

// maxApplyAllocsPerTuple bounds TestApplyStatementsPerBatch's Apply,
// counting every goroutine's allocations (the nodes' included): 24.4 with
// grouped statements, 60 or more when each tuple runs its own.
const maxApplyAllocsPerTuple = 30

// TestApplyStatementsPerBatch pins a batch's statement shape: 32 moves of
// one table from one source to one target run one locked SELECT, one
// DELETE of lingering replicas, one INSERT per row and one cleanup
// DELETE — 35 statements where the per-tuple executor ran 4 x 32 — and
// bounds what Apply allocates per moved tuple.
func TestApplyStatementsPerBatch(t *testing.T) {
	const moves = 32
	c, co, tables := newMigrationCluster(t, 2, 2*moves)
	defer c.Close()
	exec := NewExecutor(co, map[string]*storage.TableSchema{"account": accountSchema()}, tables)
	var ids []workload.TupleID
	var to [][]int
	for k := 0; k < 2*moves; k += 2 {
		ids = append(ids, workload.TupleID{Table: "account", Key: int64(k)})
		to = append(to, []int{1})
	}
	plan := BuildPlan(ids, func(id workload.TupleID) []int {
		p, _ := tables["account"].Locate(id.Key)
		return p
	}, to)

	before := c.NodeOps()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	stats := exec.Apply(plan)
	runtime.ReadMemStats(&m1)
	after := c.NodeOps()
	if stats.Moved != moves || stats.Batches != 1 || stats.FailedBatches != 0 {
		t.Fatalf("stats = %v, want %d moves in one batch", stats, moves)
	}
	// Node 0 is the source, node 1 the target.
	if src, dst := after[0]-before[0], after[1]-before[1]; src != 2 || dst != 1+moves {
		t.Fatalf("source ran %d statements, target %d: want 2 (SELECT, cleanup DELETE) and %d (DELETE, %d INSERTs)",
			src, dst, 1+moves, moves)
	}
	if got := countRows(c, 1); got != 2*moves {
		t.Fatalf("target holds %d rows, want %d", got, 2*moves)
	}
	if perTuple := float64(m1.Mallocs-m0.Mallocs) / moves; perTuple > maxApplyAllocsPerTuple {
		t.Errorf("Apply allocates %.1f objects per moved tuple, want <= %d", perTuple, maxApplyAllocsPerTuple)
	}
}

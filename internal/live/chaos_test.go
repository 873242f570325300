package live

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/storage"
	"schism/internal/workload"
)

// newChaosMigrationCluster is newMigrationCluster with a fault-friendly
// config: short lock timeout and an RPC timeout so 2PC rounds against a
// dead node fail fast instead of wedging a migration batch.
func newChaosMigrationCluster(t testing.TB, n, total int) (*cluster.Cluster, *cluster.Coordinator, map[string]*SyncTable) {
	t.Helper()
	place := func(key int64) int { return int(key) % n }
	c := cluster.New(cluster.Config{
		Nodes:       n,
		LockTimeout: 500 * time.Millisecond,
		RPCTimeout:  10 * time.Millisecond,
	}, func(node int) *storage.Database {
		db := storage.NewDatabase()
		tbl := db.MustCreateTable(accountSchema())
		for k := 0; k < total; k++ {
			if place(int64(k)) != node {
				continue
			}
			if err := tbl.Insert(storage.Row{datum.NewInt(int64(k)), datum.NewInt(1000)}); err != nil {
				t.Fatal(err)
			}
		}
		return db
	})
	full := storage.NewDatabase()
	tbl := full.MustCreateTable(accountSchema())
	for k := 0; k < total; k++ {
		if err := tbl.Insert(storage.Row{datum.NewInt(int64(k)), datum.NewInt(1000)}); err != nil {
			t.Fatal(err)
		}
	}
	strat, tables := DeployLookup(full, n, map[string]string{"account": "id"},
		func(id workload.TupleID) []int { return []int{place(id.Key)} })
	co := cluster.NewCoordinator(c, strat)
	return c, co, tables
}

// holders returns, for each key, the set of nodes physically holding it
// and the balance at each.
func holders(c *cluster.Cluster, total int) map[int64]map[int]int64 {
	out := make(map[int64]map[int]int64, total)
	for node := 0; node < c.NumNodes(); node++ {
		c.Node(node).DB().Table("account").ScanAll(func(key int64, row storage.Row) bool {
			if out[key] == nil {
				out[key] = make(map[int]int64)
			}
			out[key][node] = row[1].I
			return true
		})
	}
	return out
}

// TestMigrationSurvivesCopyCrashes runs a live migration (every even key
// moves node 0 -> node 1) with concurrent transfer traffic while both the
// copy target and the copy source crash mid-copy and recover via WAL
// replay. Afterwards the physical placement must exactly match the
// routing tables — no tuple lost, none duplicated — and money must be
// conserved.
func TestMigrationSurvivesCopyCrashes(t *testing.T) {
	const total = 40
	c, co, tables := newChaosMigrationCluster(t, 2, total)
	defer c.Close()
	const batchSize = 4
	exec := NewExecutor(co, map[string]*storage.TableSchema{"account": accountSchema()}, tables)
	exec.BatchSize = batchSize

	// Crash the copy target early in the migration and the copy source
	// later on; each restarts (with recovery) while batches are in flight.
	// The trigger fires per target of each grouped statement. Every batch
	// here moves batchSize keys from node 0 to node 1, so a fault-free
	// batch fires on the target once for the DELETE of lingering replicas
	// and once per INSERT, and on the source once for the locked SELECT
	// and once for the cleanup DELETE. The target fails in the middle of
	// the first batch's copy, the source at the locked SELECT of the
	// fourth batch; the first batch's retries while the target is down
	// each re-run the SELECT, which only brings the source's fault earlier,
	// and the ten occurrences a fault-free run has guarantee it fires.
	const targetPerBatch, sourcePerBatch = 1 + batchSize, 2
	plan := cluster.NewFaultPlan(co,
		cluster.Fault{Point: cluster.DuringMigrationCopy, Node: 1, After: 1 + targetPerBatch/2, RestartAfter: 15 * time.Millisecond},
		cluster.Fault{Point: cluster.DuringMigrationCopy, Node: 0, After: 3*sourcePerBatch + 1, RestartAfter: 15 * time.Millisecond},
	)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
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
				from, to := rng.Int63n(total), rng.Int63n(total)
				if from == to {
					continue
				}
				// Errors tolerated: while a node is down some transfers
				// legitimately fail; invariants are checked after recovery.
				co.RunTxn(func(tx *cluster.Txn) error {
					if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal - 2 WHERE id = %d", from)); err != nil {
						return err
					}
					_, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 2 WHERE id = %d", to))
					return err
				})
			}
		}(int64(w + 1))
	}

	var ids []workload.TupleID
	var toSets [][]int
	for k := int64(0); k < total; k += 2 {
		ids = append(ids, workload.TupleID{Table: "account", Key: k})
		toSets = append(toSets, []int{1})
	}
	mplan := BuildPlan(ids, func(id workload.TupleID) []int {
		p, _ := tables["account"].Locate(id.Key)
		return p
	}, toSets)
	stats := exec.Apply(mplan)

	close(stop)
	wg.Wait()
	plan.Close()
	if errs := plan.Errs(); len(errs) != 0 {
		t.Fatalf("scheduled restart errors: %v", errs)
	}
	st := plan.Stats()
	if st.Crashes != 2 || st.Restarts != 2 {
		t.Fatalf("fault plan crashes=%d restarts=%d, want 2/2 (pending=%d)", st.Crashes, st.Restarts, plan.Pending())
	}
	for i := 0; i < c.NumNodes(); i++ {
		if !c.NodeRunning(i) {
			t.Fatalf("node %d not running after recovery", i)
		}
	}
	if err := co.Drain(); err != nil {
		t.Fatalf("Drain after recovery: %v", err)
	}

	// Placement: every key's physical holder set must equal its routing
	// entry — a missing replica loses writes, an extra one is a duplicate
	// (moved batches flipped routing; failed batches reverted it; either
	// way the two must agree).
	hold := holders(c, total)
	if len(hold) != total {
		t.Fatalf("cluster holds %d distinct keys, want %d", len(hold), total)
	}
	var money int64
	for k := int64(0); k < total; k++ {
		route, ok := tables["account"].Locate(k)
		if !ok || len(route) == 0 {
			t.Fatalf("key %d has no routing entry", k)
		}
		phys := hold[k]
		if len(phys) != len(route) {
			t.Fatalf("key %d: physically on %v, routed to %v (migration stats %v)", k, phys, route, stats)
		}
		var bal int64
		for _, node := range route {
			b, ok := phys[node]
			if !ok {
				t.Fatalf("key %d: routed to node %d but not present there (holders %v)", k, node, phys)
			}
			bal = b
		}
		money += bal
	}
	if money != total*1000 {
		t.Fatalf("money not conserved across migration under faults: got %d, want %d (stats %v, recovery %v)",
			money, total*1000, stats, st.Recovery)
	}

	// The migrated keys must be writable at their new home.
	if _, _, err := co.RunTxn(func(tx *cluster.Txn) error {
		_, err := tx.Exec("UPDATE account SET bal = bal + 0 WHERE id = 0")
		return err
	}); err != nil {
		t.Fatalf("write to migrated key after recovery: %v", err)
	}
}

// TestMigrationFailsBatchCleanlyWhileNodeDown pins the Drain fail-fast
// satellite end to end: a batch attempted while a node is crashed (and
// never restarted during the attempt) must fail cleanly — routing
// reverted, no tuples moved — instead of blocking on the epoch barrier.
func TestMigrationFailsBatchCleanlyWhileNodeDown(t *testing.T) {
	const total = 10
	c, co, tables := newChaosMigrationCluster(t, 2, total)
	defer c.Close()
	exec := NewExecutor(co, map[string]*storage.TableSchema{"account": accountSchema()}, tables)

	c.Crash(1)
	mplan := BuildPlan(
		[]workload.TupleID{{Table: "account", Key: 0}, {Table: "account", Key: 2}},
		func(id workload.TupleID) []int {
			p, _ := tables["account"].Locate(id.Key)
			return p
		},
		[][]int{{1}, {1}},
	)
	start := time.Now()
	stats := exec.Apply(mplan)
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("migration against a dead node took %v, want fail-fast", d)
	}
	if stats.Moved != 0 || stats.FailedBatches == 0 {
		t.Fatalf("stats = %v, want zero moves and a failed batch", stats)
	}
	// Routing reverted to the original home.
	for _, k := range []int64{0, 2} {
		if p, _ := tables["account"].Locate(k); len(p) != 1 || p[0] != 0 {
			t.Fatalf("key %d routing %v after failed batch, want [0]", k, p)
		}
	}
	if _, err := co.RestartNode(1); err != nil {
		t.Fatal(err)
	}
	// Whole again: the same plan now applies fully.
	mplan = BuildPlan(
		[]workload.TupleID{{Table: "account", Key: 0}, {Table: "account", Key: 2}},
		func(id workload.TupleID) []int {
			p, _ := tables["account"].Locate(id.Key)
			return p
		},
		[][]int{{1}, {1}},
	)
	if stats := exec.Apply(mplan); stats.Moved != 2 || stats.FailedBatches != 0 {
		t.Fatalf("stats after restart = %v, want 2 clean moves", stats)
	}
}

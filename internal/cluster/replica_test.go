package cluster

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"schism/internal/lookup"
	"schism/internal/partition"
	"schism/internal/workload"
)

// newReplicatedCluster builds n nodes where table "account" is routed by a
// lookup strategy: keys 0..singles-1 live on key%n, keys singles..total-1
// are replicated on every node.
func newReplicatedCluster(t testing.TB, n, singles, replicated int) (*Cluster, *Coordinator) {
	t.Helper()
	total := singles + replicated
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	router := lookup.NewRouter(n)
	home := func(k int64) []int {
		if k < int64(singles) {
			return []int{int(k) % n}
		}
		return all
	}
	for k := 0; k < total; k++ {
		router.Set("account", int64(k), home(int64(k)))
	}
	strat := &partition.Lookup{
		K:         n,
		Router:    router,
		KeyColumn: map[string]string{"account": "id"},
	}
	return deploy(t, Config{Nodes: n, LockTimeout: 2 * time.Second}, accountDB(t, total), strat)
}

// TestPickReplicaPrefersTouchedNode pins the §5.4 replica-read rule: once
// a transaction has touched a node, reads of replicated tuples are served
// from that node rather than fanning the transaction out further.
func TestPickReplicaPrefersTouchedNode(t *testing.T) {
	c, co := newReplicatedCluster(t, 4, 8, 4)
	defer c.Close()
	for key := int64(0); key < 8; key++ {
		tx := co.begin(false)
		// Touch the single-homed key's node first.
		if _, err := tx.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", key)); err != nil {
			t.Fatal(err)
		}
		if tx.span() != 1 {
			t.Fatalf("touched %d nodes after keyed read", tx.span())
		}
		// Replicated reads must stay on the already-touched node — for any
		// txn, so the preference cannot be a lucky random pick.
		for rep := int64(8); rep < 12; rep++ {
			if _, err := tx.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", rep)); err != nil {
				t.Fatal(err)
			}
		}
		if tx.span() != 1 {
			t.Fatalf("replicated reads left home: touched %d nodes", tx.span())
		}
		if err := tx.commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPickReplicaFailsOverFromDownNode pins the stickiness failover
// rule: a replica the transaction is sticky on (already touched) that
// crashes or pauses is skipped and the pick re-seeded among the live
// candidates, so replicated reads keep working mid-transaction instead
// of chasing the dead replica until the transaction starves.
func TestPickReplicaFailsOverFromDownNode(t *testing.T) {
	for _, pause := range []bool{false, true} {
		name := "crash"
		if pause {
			name = "pause"
		}
		t.Run(name, func(t *testing.T) {
			c, co := newReplicatedCluster(t, 3, 0, 6)
			defer c.Close()
			tx := co.begin(false)
			defer tx.abort()
			if _, err := tx.Exec("SELECT * FROM account WHERE id = 0"); err != nil {
				t.Fatal(err)
			}
			var sticky int
			for _, p := range tx.touched.list {
				sticky = p.group
			}
			if pause {
				c.Pause(sticky)
			} else {
				c.Crash(sticky)
			}
			// The sticky replica is gone; the read must be served by a live
			// one. (Without failover this would hit the dead node: an
			// ErrNodeDown failure on crash, a wedge on pause.)
			rows, err := tx.Exec("SELECT * FROM account WHERE id = 1")
			if err != nil || len(rows) != 1 {
				t.Fatalf("replicated read through %s of sticky node %d: rows=%v err=%v",
					name, sticky, rows, err)
			}
			if tx.span() != 2 {
				t.Fatalf("read did not re-seed to a live replica: touched=%v", tx.touched.list)
			}
			if pause {
				c.Resume(sticky)
			} else {
				tx.abort()
				if _, err := co.RestartNode(sticky); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestReadAnywhereWriteAll checks replicated-tuple correctness: a write
// must reach every replica (and count as distributed), and any replica
// then serves the new value.
func TestReadAnywhereWriteAll(t *testing.T) {
	const n = 3
	c, co := newReplicatedCluster(t, n, 3, 3)
	defer c.Close()
	dist, _, err := co.RunTxn(func(tx *Txn) error {
		_, err := tx.Exec("UPDATE account SET bal = 5 WHERE id = 4")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dist {
		t.Fatal("write-all to a replicated tuple should be distributed")
	}
	// Every node's local copy carries the write.
	for node := 0; node < n; node++ {
		row, ok := c.Node(node).DB().Table("account").Get(4)
		if !ok || row[1].I != 5 {
			t.Fatalf("node %d replica = %v (ok=%v), want bal 5", node, row, ok)
		}
	}
	// A single replicated read is served by exactly one node.
	tx := co.begin(false)
	defer tx.abort()
	rows, err := tx.Exec("SELECT * FROM account WHERE id = 4")
	if err != nil || len(rows) != 1 || rows[0][1].I != 5 {
		t.Fatalf("replicated read: rows=%v err=%v", rows, err)
	}
	if tx.span() != 1 {
		t.Fatalf("replicated read touched %d nodes, want 1", tx.span())
	}
}

// TestCaptureHookRecordsAccessSets checks the live-capture path: committed
// transactions deliver their ground-truth read/write sets (matched rows,
// write flags, single delivery per commit), and aborted transactions
// deliver nothing.
func TestCaptureHookRecordsAccessSets(t *testing.T) {
	c, co := newReplicatedCluster(t, 2, 4, 0)
	defer c.Close()
	var got [][]workload.Access
	co.SetCapture(func(accs []workload.Access) {
		cp := append([]workload.Access(nil), accs...)
		got = append(got, cp)
	})

	_, _, err := co.RunTxn(func(tx *Txn) error {
		if _, err := tx.Exec("SELECT * FROM account WHERE id = 1"); err != nil {
			return err
		}
		_, err := tx.Exec("UPDATE account SET bal = bal - 1 WHERE id = 2")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	aborted := co.begin(false)
	if _, err := aborted.Exec("SELECT * FROM account WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	aborted.abort()

	co.SetCapture(nil)
	if len(got) != 1 {
		t.Fatalf("captured %d transactions, want 1", len(got))
	}
	var rendered []string
	for _, a := range got[0] {
		rendered = append(rendered, fmt.Sprintf("%s:%v", a.Tuple, a.Write))
	}
	sort.Strings(rendered)
	want := []string{"account:1:false", "account:2:true"}
	if fmt.Sprint(rendered) != fmt.Sprint(want) {
		t.Fatalf("captured %v, want %v", rendered, want)
	}
}

// TestCaptureOffHasNoKeys ensures the zero-overhead path: without a hook
// installed, responses carry no captured keys.
func TestCaptureOffHasNoKeys(t *testing.T) {
	c, co := newReplicatedCluster(t, 1, 2, 0)
	defer c.Close()
	tx := co.begin(false)
	defer tx.abort()
	if _, err := tx.Exec("SELECT * FROM account WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	if len(tx.accs) != 0 {
		t.Fatalf("accs = %v, want none with capture off", tx.accs)
	}
}

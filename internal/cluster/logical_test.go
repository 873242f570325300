package cluster

import (
	"strings"
	"testing"
	"time"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/storage"
)

// TestLogicalDigestIgnoresPlacement reads the same 40 accounts deployed
// four ways — one node, hash over four nodes, full replication over
// four, and hash over two groups of two — and requires one digest, each
// key once, and a Visit that sees every logical row exactly once.
func TestLogicalDigestIgnoresPlacement(t *testing.T) {
	const total = 40
	cases := []struct {
		name  string
		cfg   Config
		strat partition.Strategy
	}{
		{"single", Config{Nodes: 1}, accountHash(1)},
		{"hash", Config{Nodes: 4}, accountHash(4)},
		{"replication", Config{Nodes: 4}, &partition.FullReplication{K: 4}},
		{"groups", Config{Nodes: 4, ReplicationFactor: 2, ReplHeartbeat: 2 * time.Millisecond,
			ReplElection: 25 * time.Millisecond, ReplSeed: 3}, accountHash(2)},
	}
	var want uint64
	for i, tc := range cases {
		c, _ := deploy(t, tc.cfg, accountDB(t, total), tc.strat)
		snap, err := Logical(c)
		if err != nil {
			c.Close()
			t.Fatalf("%s: %v", tc.name, err)
		}
		seen := map[int64]int{}
		snap.Visit("account", func(key int64, row storage.Row) {
			seen[key]++
			if row[1].I != 1000 {
				t.Errorf("%s: account %d holds %d", tc.name, key, row[1].I)
			}
		})
		c.Close()
		if snap.Len("account") != total || len(seen) != total {
			t.Fatalf("%s: %d logical rows, %d visited, want %d", tc.name, snap.Len("account"), len(seen), total)
		}
		for key, n := range seen {
			if n != 1 {
				t.Fatalf("%s: account %d visited %d times", tc.name, key, n)
			}
		}
		if i == 0 {
			want = snap.Digest()
		} else if got := snap.Digest(); got != want {
			t.Errorf("%s: digest %x, single node %x", tc.name, got, want)
		}
	}
}

// TestLogicalRejectsDivergentCopies plants copies that break one-copy
// equivalence on purpose, through New rather than Deploy, and requires
// Logical to name the table and key of each.
func TestLogicalRejectsDivergentCopies(t *testing.T) {
	// plant builds a cluster whose node images are the bank with edit
	// applied per node.
	plant := func(cfg Config, edit func(node int, tbl *storage.Table)) *Cluster {
		return New(cfg, func(node int) *storage.Database {
			db := accountDB(t, 4)
			edit(node, db.Table("account"))
			return db
		})
	}
	set := func(tbl *storage.Table, key, bal int64) {
		if err := tbl.Update(key, storage.Row{datum.NewInt(key), datum.NewInt(bal)}); err != nil {
			t.Fatal(err)
		}
	}
	group := Config{Nodes: 2, ReplicationFactor: 2, ReplHeartbeat: 2 * time.Millisecond,
		ReplElection: 25 * time.Millisecond, ReplSeed: 3}
	cases := []struct {
		name, want string
		cfg        Config
		edit       func(node int, tbl *storage.Table)
	}{
		{"replicas on two groups differ", "table account key 2: nodes 0 and 1 hold different rows",
			Config{Nodes: 2}, func(node int, tbl *storage.Table) {
				if node == 1 {
					set(tbl, 2, 999)
				}
			}},
		{"group members differ", "table account key 3: nodes 0 and 1 hold different rows",
			group, func(node int, tbl *storage.Table) {
				if node == 1 {
					set(tbl, 3, 7)
				}
			}},
		{"member lacks a row", "table account key 1: node 1 lacks a row",
			group, func(node int, tbl *storage.Table) {
				if node == 1 {
					tbl.Delete(1)
				}
			}},
		{"member holds an extra row", "table account key 0: node 1 holds a row",
			group, func(node int, tbl *storage.Table) {
				if node == 0 {
					tbl.Delete(0)
				}
			}},
	}
	for _, tc := range cases {
		c := plant(tc.cfg, tc.edit)
		if !c.WaitForLeaders(settleTimeout) {
			c.Close()
			t.Fatalf("%s: no leader", tc.name)
		}
		_, err := Logical(c)
		c.Close()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Logical error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestDeployRejectsMismatchedStrategy: a strategy must have one partition
// per group; Deploy says so instead of starting a cluster.
func TestDeployRejectsMismatchedStrategy(t *testing.T) {
	for _, cfg := range []Config{{Nodes: 4}, {Nodes: 3, ReplicationFactor: 2}, {Nodes: 0}} {
		if c, _, err := Deploy(cfg, accountDB(t, 4), accountHash(3)); err == nil {
			c.Close()
			t.Errorf("Deploy(%+v) with 3 partitions: no error", cfg)
		}
	}
}

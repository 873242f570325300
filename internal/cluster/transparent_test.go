package cluster_test

import (
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/partition"
	"schism/internal/workloads"
)

// TestPlacementTransparent checks one-copy equivalence for the
// placements that are transparent today: one client runs a fixed stream
// in Ops mode on a k = 4, R = 1 cluster built by Deploy, under hash, the
// workload's manual strategy where it has one, and full replication,
// and the cluster's logical snapshot must equal that of the same stream
// on one node. Logical itself fails the run if two copies of a row
// differ.
//
// Two rows are left out by scope. The lookup strategy core.Run learns is
// not transparent yet: a key its tables never saw is Floating, so an
// INSERT and a later read of it may reach different partitions (ROADMAP
// item 2). R = 3 is not either: follower reads are not pinned to the
// writer's timeline (ROADMAP item 12).
func TestPlacementTransparent(t *testing.T) {
	const k = 4
	ops := 400
	if testing.Short() {
		ops = 100
	}
	tpcc := workloads.TPCCConfig{Warehouses: 4, Districts: 4, Customers: 10, Items: 60, InitialOrders: 5, Txns: 1, Seed: 3}
	epinions := workloads.EpinionsConfig{Users: 200, Items: 100, Communities: 4, Txns: 1, Seed: 5}
	ycsb := workloads.YCSBGroupsConfig{Rows: 400, Txns: 1, Seed: 7}
	cases := []struct {
		name   string
		w      *workloads.Workload
		stream driver.StreamMaker
	}{
		{"tpcc", workloads.TPCC(tpcc), workloads.TPCCStream(tpcc)},
		{"epinions", workloads.Epinions(epinions), workloads.EpinionsStream(epinions)},
		{"ycsb-groups", workloads.YCSBGroups(ycsb), workloads.YCSBGroupsStream(ycsb)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(strat partition.Strategy) uint64 {
				t.Helper()
				c, co, err := cluster.Deploy(cluster.Config{Nodes: strat.NumPartitions(), LockTimeout: 2 * time.Second}, tc.w.DB, strat)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				before, err := cluster.Logical(c)
				if err != nil {
					t.Fatalf("%s: %v", strat.Name(), err)
				}
				res := driver.Run(co, driver.Config{Clients: 1, Ops: ops, Seed: 11}, tc.stream)
				if res.Committed != int64(ops) || res.Failed != 0 {
					t.Fatalf("%s: committed %d, failed %d of %d", strat.Name(), res.Committed, res.Failed, ops)
				}
				if err := co.Drain(); err != nil {
					t.Fatal(err)
				}
				after, err := cluster.Logical(c)
				if err != nil {
					t.Fatalf("%s: %v", strat.Name(), err)
				}
				if after.Digest() == before.Digest() {
					t.Fatalf("%s: the stream changed no row", strat.Name())
				}
				return after.Digest()
			}
			want := run(&partition.Hash{K: 1, KeyColumn: tc.w.KeyColumns})
			strats := []partition.Strategy{
				&partition.Hash{K: k, KeyColumn: tc.w.KeyColumns},
				&partition.FullReplication{K: k},
			}
			if tc.w.Manual != nil {
				strats = append(strats, tc.w.Manual(k))
			}
			for _, strat := range strats {
				if got := run(strat); got != want {
					t.Errorf("%s at k = %d: logical digest %x, one node %x", strat.Name(), k, got, want)
				}
			}
		})
	}
}

package cluster_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/core"
	"schism/internal/driver"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// TestPlacementTransparent checks one-copy equivalence: one client runs a
// fixed stream in Ops mode on a k = 4, R = 1 cluster built by Deploy, and
// the cluster's logical snapshot must equal that of the same stream on
// one node. Logical itself fails the run if two copies of a row differ,
// and checkPlacement fails it if a row sits on other groups than the
// strategy names for it. The strategies are hash, full replication and
// the workload's manual strategy where it has one, and on TPC-C also the
// lookup table and the validation pick that core.Run learns from the
// workload's trace. The learned rows run 3 000 operations, enough for
// Deliveries to read back and delete rows that earlier NewOrders
// inserted under keys the lookup tables miss: that is where a missed key
// placed off its home changes the logical state, and 1 000 operations do
// not reach it (checkPlacement still does).
//
// R = 3 is left out: follower reads are not pinned to the writer's
// timeline (ROADMAP item 12).
func TestPlacementTransparent(t *testing.T) {
	const k = 4
	ops, learnedOps := 400, 3000
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		ops, seeds = 100, seeds[:1]
	}
	tpcc := workloads.TPCCConfig{Warehouses: 4, Districts: 4, Customers: 10, Items: 60, InitialOrders: 5, Txns: 1, Seed: 3}
	epinions := workloads.EpinionsConfig{Users: 200, Items: 100, Communities: 4, Txns: 1, Seed: 5}
	ycsb := workloads.YCSBGroupsConfig{Rows: 400, Txns: 1, Seed: 7}
	type tcase struct {
		name    string
		w       *workloads.Workload
		stream  driver.StreamMaker
		ops     int
		learned bool
	}
	cases := []tcase{
		{"tpcc", workloads.TPCC(tpcc), workloads.TPCCStream(tpcc), ops, false},
		{"epinions", workloads.Epinions(epinions), workloads.EpinionsStream(epinions), ops, false},
		{"ycsb-groups", workloads.YCSBGroups(ycsb), workloads.YCSBGroupsStream(ycsb), ops, false},
	}
	for _, seed := range seeds {
		cfg := workloads.TPCCConfig{Warehouses: 8, Districts: 4, Customers: 10, Items: 60, InitialOrders: 2, Txns: 3000, Seed: seed}
		cases = append(cases, tcase{fmt.Sprintf("tpcc-learned/seed%d", seed), workloads.TPCC(cfg), workloads.TPCCStream(cfg), learnedOps, true})
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
				res := driver.Run(co, driver.Config{Clients: 1, Ops: tc.ops, Seed: 11}, tc.stream)
				if res.Committed != int64(tc.ops) || res.Failed != 0 {
					t.Fatalf("%s: committed %d, failed %d of %d", strat.Name(), res.Committed, res.Failed, tc.ops)
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
				checkPlacement(t, c, strat)
				return after.Digest()
			}
			want := run(&partition.Hash{K: 1, KeyColumn: tc.w.KeyColumns})
			var strats []partition.Strategy
			if tc.learned {
				res, err := core.Run(core.Input{Trace: tc.w.Trace, Resolver: tc.w.Resolver(), KeyColumns: tc.w.KeyColumns, DB: tc.w.DB},
					core.Options{Partitions: k, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				strats = append(strats, res.Lookup)
				if res.Chosen != partition.Strategy(res.Lookup) {
					strats = append(strats, res.Chosen)
				}
			} else {
				strats = append(strats, &partition.Hash{K: k, KeyColumn: tc.w.KeyColumns}, &partition.FullReplication{K: k})
				if tc.w.Manual != nil {
					strats = append(strats, tc.w.Manual(k))
				}
			}
			for _, strat := range strats {
				if got := run(strat); got != want {
					t.Errorf("%s at k = %d: logical digest %x, one node %x", strat.Name(), k, got, want)
				}
			}
		})
	}
}

// checkPlacement fails the test unless every row of the drained cluster
// sits on exactly the groups strat.Locate names for it, read from each
// group's first member.
func checkPlacement(t *testing.T, c *cluster.Cluster, strat partition.Strategy) {
	t.Helper()
	held := make(map[workload.TupleID][]int)
	want := make(map[workload.TupleID][]int)
	for g := 0; g < c.NumGroups(); g++ {
		db := c.Node(c.GroupMembers(g)[0]).DB()
		for _, name := range db.TableNames() {
			tbl := db.Table(name)
			tbl.ViewAll(func(key int64, row storage.Row) bool {
				id := workload.TupleID{Table: name, Key: key}
				held[id] = append(held[id], g)
				if _, ok := want[id]; !ok {
					want[id] = strat.Locate(id, storage.RowView{Schema: tbl.Schema, Data: row})
				}
				return true
			})
		}
	}
	misplaced := 0
	for id, groups := range held {
		if !slices.Equal(groups, want[id]) {
			if misplaced < 5 {
				t.Errorf("%s: %s key %d on groups %v, Locate names %v", strat.Name(), id.Table, id.Key, groups, want[id])
			}
			misplaced++
		}
	}
	if misplaced > 0 {
		t.Errorf("%s: %d of %d rows misplaced", strat.Name(), misplaced, len(held))
	}
}

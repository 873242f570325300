package driver_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/driver"
	"schism/internal/live"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// newTPCCCluster builds a k-node TPC-C cluster with the paper's manual
// warehouse-range partitioning, warehouses split contiguously.
func newTPCCCluster(t testing.TB, cfg workloads.TPCCConfig, k int) (*cluster.Cluster, *cluster.Coordinator) {
	t.Helper()
	db := storage.NewDatabase()
	workloads.TPCCPopulate(db, cfg)
	return deploy(t, cluster.Config{Nodes: k, LockTimeout: 2 * time.Second}, db, workloads.TPCCManual(cfg, k))
}

// deploy is cluster.Deploy that fails the test on error.
func deploy(t testing.TB, cfg cluster.Config, db *storage.Database, strat partition.Strategy) (*cluster.Cluster, *cluster.Coordinator) {
	t.Helper()
	c, co, err := cluster.Deploy(cfg, db, strat)
	if err != nil {
		t.Fatal(err)
	}
	return c, co
}

// tpccTestConfig fixes every TPC-C size small, below the defaults.
func tpccTestConfig(w int) workloads.TPCCConfig {
	return workloads.TPCCConfig{
		Warehouses: w, Districts: 4, Customers: 20, Items: 100,
		InitialOrders: 5, Txns: 1, Seed: 13,
	}
}

// TestDriverSmoke is the CI bench-driver smoke: a short TPC-C run with 2
// clients must commit transactions and produce a sane histogram.
func TestDriverSmoke(t *testing.T) {
	cfg := tpccTestConfig(2)
	c, co := newTPCCCluster(t, cfg, 2)
	defer c.Close()

	res := driver.Run(co, driver.Config{Clients: 2, Ops: 20, Seed: 5},
		workloads.TPCCNewOrderPaymentStream(cfg))
	if res.Committed == 0 {
		t.Fatal("no committed transactions")
	}
	if res.Committed+res.Failed != 40 {
		t.Fatalf("committed+failed = %d+%d, want 40 ops accounted for", res.Committed, res.Failed)
	}
	if res.Failed != 0 {
		t.Errorf("%d transactions failed permanently", res.Failed)
	}
	// Histogram sanity: one latency sample per committed transaction,
	// monotone quantiles within [min, max], nonzero mean.
	h := res.Latency
	if h.Count() != res.Committed {
		t.Fatalf("latency samples %d != commits %d", h.Count(), res.Committed)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if !(h.Min() <= p50 && p50 <= p99 && p99 <= h.Max()) {
		t.Fatalf("quantiles not monotone: min=%v p50=%v p99=%v max=%v", h.Min(), p50, p99, h.Max())
	}
	if h.Mean() <= 0 {
		t.Fatal("zero mean latency")
	}
	if res.StmtLatency.Count() == 0 {
		t.Fatal("no per-statement samples")
	}
	if res.Throughput() <= 0 || res.Elapsed <= 0 {
		t.Fatalf("throughput=%v elapsed=%v", res.Throughput(), res.Elapsed)
	}
	// Every statement was classified exactly once.
	if res.StmtLocal+res.StmtDistributed == 0 {
		t.Fatal("no statements classified")
	}
	var nodeTotal int64
	for _, v := range res.NodeOps {
		nodeTotal += v
	}
	if nodeTotal == 0 {
		t.Fatal("no per-node ops recorded")
	}
	if res.Imbalance() < 1 {
		t.Fatalf("imbalance %v < 1 (max/mean cannot be below 1)", res.Imbalance())
	}
	if s := res.String(); s == "" {
		t.Fatal("empty summary")
	}
}

// streamSigs enumerates the first n sigs of a client's stream offline
// (no cluster), hashed the same way the driver hashes them.
func offlineSigs(mk driver.StreamMaker, clients, n int, seed int64) []string {
	out := make([]string, clients)
	for c := 0; c < clients; c++ {
		s := mk(c, seed)
		acc := ""
		for i := 0; i < n; i++ {
			acc += s.Next().Sig + "\n"
		}
		out[c] = acc
	}
	return out
}

// TestDriverDeterministicAcrossGOMAXPROCS runs the same fixed-seed,
// fixed-op-count benchmark at GOMAXPROCS=1 and at full parallelism on
// fresh clusters, and requires byte-identical per-client operation
// streams (compared via the driver's FNV hashes) in both runs — and
// identical to an offline enumeration of the streams, proving the driver
// consumed exactly the generated sequence however scheduling interleaved
// retries and commits.
func TestDriverDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := tpccTestConfig(2)
	const clients, ops, seed = 4, 15, 42
	mk := workloads.TPCCNewOrderPaymentStream(cfg)

	run := func(procs int) []uint64 {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		c, co := newTPCCCluster(t, cfg, 2)
		defer c.Close()
		res := driver.Run(co, driver.Config{Clients: clients, Ops: ops, Seed: seed}, mk)
		if res.Committed == 0 {
			t.Fatal("no commits")
		}
		return res.ClientSigs
	}

	serial := run(1)
	parallel := run(runtime.NumCPU())
	for c := range serial {
		if serial[c] != parallel[c] {
			t.Fatalf("client %d: sig hash differs between GOMAXPROCS=1 (%x) and =%d (%x)",
				c, serial[c], runtime.NumCPU(), parallel[c])
		}
	}
	// Offline enumeration must match what the driver consumed.
	offline := offlineSigs(mk, clients, ops, seed)
	for c, want := range offline {
		h := fnvHash(want)
		if serial[c] != h {
			t.Fatalf("client %d: driver hash %x != offline stream hash %x", c, serial[c], h)
		}
	}
	// Different seeds must produce different streams (sanity that the
	// hash actually depends on the draws).
	other := offlineSigs(mk, clients, ops, seed+1)
	if fnvHash(other[0]) == fnvHash(offline[0]) {
		t.Fatal("seed change did not change the op stream")
	}
}

func fnvHash(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// clusterFromDB deploys a single-node database image on
// strat.NumPartitions() nodes.
func clusterFromDB(t testing.TB, src *storage.Database, strat partition.Strategy) (*cluster.Cluster, *cluster.Coordinator) {
	t.Helper()
	return deploy(t, cluster.Config{Nodes: strat.NumPartitions(), LockTimeout: 2 * time.Second}, src, strat)
}

// TestStreamsSmoke executes every workload stream generator against a
// small hash-partitioned cluster: the full five-transaction TPC-C mix
// (order-status/delivery/stock-level exercise the range and ORDER BY
// paths), YCSB-A, the drifting YCSB group mix, and the join-free
// Epinions social mix.
func TestStreamsSmoke(t *testing.T) {
	type tc struct {
		name  string
		db    *storage.Database
		strat partition.Strategy
		mk    driver.StreamMaker
	}
	tcfg := tpccTestConfig(2)
	ycfg := workloads.YCSBConfig{Rows: 500, Txns: 1, Seed: 3}
	gcfg := workloads.YCSBGroupsConfig{Rows: 480, GroupSize: 4, Txns: 1, Seed: 4}
	ecfg := workloads.EpinionsConfig{Users: 150, Items: 60, Txns: 1, Seed: 5}
	cases := []tc{
		{
			name:  "tpcc-full-mix",
			db:    workloads.TPCC(tcfg).DB,
			strat: workloads.TPCCManual(tcfg, 2),
			mk:    workloads.TPCCStream(tcfg),
		},
		{
			name:  "ycsb-a",
			db:    workloads.YCSBA(ycfg).DB,
			strat: &partition.Hash{K: 2, KeyColumn: map[string]string{"usertable": "ycsb_key"}},
			mk:    workloads.YCSBAStream(ycfg),
		},
		{
			name:  "ycsb-groups",
			db:    workloads.YCSBGroups(gcfg).DB,
			strat: &partition.Hash{K: 2, KeyColumn: map[string]string{"usertable": "ycsb_key"}},
			mk:    workloads.YCSBGroupsStream(gcfg),
		},
		{
			name: "epinions",
			db:   workloads.Epinions(ecfg).DB,
			strat: &partition.Hash{K: 2, KeyColumn: map[string]string{
				"users": "u_id", "items": "i_id", "reviews": "r_id", "trust": "t_id",
			}},
			mk: workloads.EpinionsStream(ecfg),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cl, co := clusterFromDB(t, c.db, c.strat)
			defer cl.Close()
			res := driver.Run(co, driver.Config{Clients: 2, Ops: 15, Seed: 11}, c.mk)
			if res.Committed == 0 {
				t.Fatal("no commits")
			}
			if res.Failed != 0 {
				t.Fatalf("%d permanent failures", res.Failed)
			}
			if res.Latency.Count() != res.Committed {
				t.Fatalf("latency samples %d != commits %d", res.Latency.Count(), res.Committed)
			}
		})
	}
}

// BenchmarkDriverTPCC measures driver overhead end to end: a small
// TPC-C cluster, two closed-loop clients, a fixed op count. The tps
// metric tracks harness + cluster throughput over time.
func BenchmarkDriverTPCC(b *testing.B) {
	cfg := tpccTestConfig(2)
	var last *driver.Result
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, co := newTPCCCluster(b, cfg, 2)
		b.StartTimer()
		last = driver.Run(co, driver.Config{Clients: 2, Ops: 25, Seed: 7},
			workloads.TPCCNewOrderPaymentStream(cfg))
		b.StopTimer()
		c.Close()
		b.StartTimer()
	}
	b.ReportMetric(last.Throughput(), "tps")
	b.ReportMetric(float64(last.Latency.Quantile(0.99)), "p99-ns")
}

// --- money conservation under the driver, with live migration ---

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

// bankTotal totals the balances of the cluster's logical snapshot,
// failing the test if the snapshot does.
func bankTotal(t testing.TB, c *cluster.Cluster) int64 {
	t.Helper()
	snap, err := cluster.Logical(c)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	snap.Visit("account", func(_ int64, row storage.Row) { total += row[1].I })
	return total
}

// transferStream draws pre-parameterised transfer transactions: the
// retry-idempotent form of the cluster package's money workload.
func transferStream(total int) driver.StreamMaker {
	return func(client int, seed int64) driver.Stream {
		rng := rand.New(rand.NewSource(seed + int64(client)*101))
		return driver.StreamFunc(func() driver.Op {
			from := rng.Intn(total)
			to := rng.Intn(total - 1)
			if to >= from {
				to++
			}
			return driver.Op{
				Sig: fmt.Sprintf("tr %d %d", from, to),
				Run: func(t *cluster.Txn) error {
					if _, err := t.Exec(fmt.Sprintf("UPDATE account SET bal = bal - 7 WHERE id = %d", from)); err != nil {
						return err
					}
					_, err := t.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 7 WHERE id = %d", to))
					return err
				},
			}
		})
	}
}

// TestDriverMoneyConservationUnderMigration extends the cluster money
// invariant to the driver: concurrent driver clients transfer money
// through a deployed lookup strategy while (a) the workload capture hook
// streams committed access sets into a live window and (b) the live
// migration executor physically moves half the keys between nodes
// mid-benchmark. Apart from the invariant itself this is the driver's
// race smoke: capture, migration, per-node counters and histograms all
// running concurrently.
func TestDriverMoneyConservationUnderMigration(t *testing.T) {
	const nodes, total = 2, 30
	place := func(key int64) int { return int(key) % nodes }
	full := accountDB(t, total)
	strat, tables := live.DeployLookup(full, nodes, map[string]string{"account": "id"},
		func(id workload.TupleID) []int { return []int{place(id.Key)} })
	c, co := deploy(t, cluster.Config{Nodes: nodes, LockTimeout: 2 * time.Second}, full, strat)
	defer c.Close()

	// Capture committed access sets into a live window while the driver
	// runs (the capture hook is what the online loop feeds on).
	win := live.NewWindow(live.WindowConfig{Capacity: 4096})
	co.SetCapture(func(accs []workload.Access) { win.Record(accs) })

	// Start the migration mid-benchmark: move every even key to node 1.
	exec := live.NewExecutor(co, map[string]*storage.TableSchema{"account": full.Table("account").Schema}, tables)
	exec.BatchSize = 4
	migDone := make(chan live.MigrationStats, 1)
	go func() {
		time.Sleep(30 * time.Millisecond)
		var ids []workload.TupleID
		var target [][]int
		for k := 0; k < total; k += 2 {
			ids = append(ids, workload.TupleID{Table: "account", Key: int64(k)})
			target = append(target, []int{1})
		}
		plan := live.BuildPlan(ids, func(id workload.TupleID) []int {
			p, _ := tables["account"].Locate(id.Key)
			return p
		}, target)
		migDone <- exec.Apply(plan)
	}()

	res := driver.Run(co, driver.Config{
		Clients: 6, Measure: 400 * time.Millisecond, Seed: 21,
	}, transferStream(total))
	mig := <-migDone
	co.SetCapture(nil)

	if res.Committed == 0 {
		t.Fatal("no transfers committed")
	}
	if res.Failed != 0 {
		t.Fatalf("%d transfers failed permanently", res.Failed)
	}
	if mig.Moved != total/2 || mig.FailedBatches != 0 {
		t.Fatalf("migration stats = %v", mig)
	}
	if win.Total() == 0 {
		t.Fatal("capture recorded nothing")
	}
	// Summed over node images, not the logical snapshot: a copy the
	// migration left behind would count twice.
	var sum int64
	for node := 0; node < nodes; node++ {
		c.Node(node).DB().Table("account").ScanAll(func(_ int64, row storage.Row) bool {
			sum += row[1].I
			return true
		})
	}
	if sum != total*1000 {
		t.Fatalf("money not conserved under driver + migration: %d, want %d", sum, total*1000)
	}
}

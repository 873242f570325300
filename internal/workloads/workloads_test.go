package workloads

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/driver"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
)

// multiWarehouseFrac computes the fraction of transactions touching more
// than one warehouse, using each table's warehouse column.
func multiWarehouseFrac(t *testing.T, w *Workload) float64 {
	t.Helper()
	resolve := w.Resolver()
	wcol := map[string]string{
		"warehouse": "w_id", "district": "d_w_id", "customer": "c_w_id",
		"history": "h_w_id", "new_order": "no_w_id", "orders": "o_w_id",
		"order_line": "ol_w_id", "stock": "s_w_id",
	}
	multi := 0
	for _, txn := range w.Trace.Txns {
		seen := map[int64]bool{}
		for _, a := range txn.Accesses {
			col, ok := wcol[a.Tuple.Table]
			if !ok {
				continue
			}
			row := resolve(a.Tuple)
			if row == nil {
				t.Fatalf("unresolvable tuple %v", a.Tuple)
			}
			v := row.Get(col)
			wid, ok2 := v.AsInt()
			if !ok2 {
				t.Fatalf("tuple %v has no %s", a.Tuple, col)
			}
			seen[wid] = true
		}
		if len(seen) > 1 {
			multi++
		}
	}
	return float64(multi) / float64(w.Trace.Len())
}

func TestTPCCMultiWarehouseFraction(t *testing.T) {
	w := TPCC(TPCCConfig{Warehouses: 4, Customers: 30, Items: 300, InitialOrders: 10, Txns: 5000, Seed: 1})
	frac := multiWarehouseFrac(t, w)
	// Paper: 10.7% of the workload accesses multiple warehouses.
	if frac < 0.06 || frac > 0.16 {
		t.Errorf("multi-warehouse fraction = %.3f, want ~0.107", frac)
	}
}

func TestTPCCTraceResolvable(t *testing.T) {
	w := TPCC(TPCCConfig{Warehouses: 2, Customers: 10, Items: 100, InitialOrders: 5, Txns: 500, Seed: 2})
	resolve := w.Resolver()
	for _, txn := range w.Trace.Txns {
		for _, a := range txn.Accesses {
			if resolve(a.Tuple) == nil {
				t.Fatalf("tuple %v not resolvable (neither stored nor inserted)", a.Tuple)
			}
		}
	}
}

func TestTPCCManualStrategy(t *testing.T) {
	cfg := TPCCConfig{Warehouses: 4, Customers: 20, Items: 200, InitialOrders: 5, Txns: 3000, Seed: 3}
	w := TPCC(cfg)
	manual := TPCCManual(cfg, 2)
	c := partition.Evaluate(w.Trace, manual, w.Resolver())
	frac := c.DistributedFrac()
	// Warehouse partitioning leaves only multi-warehouse txns distributed.
	if frac > 0.2 {
		t.Errorf("manual TPCC frac = %.3f, want ~= multi-warehouse fraction", frac)
	}
	// Sanity: item reads never make a txn distributed (replicated).
	hash := &partition.Hash{K: 2, KeyColumn: TPCCKeyColumns()}
	hc := partition.Evaluate(w.Trace, hash, w.Resolver())
	if hc.DistributedFrac() < 2*frac {
		t.Errorf("hashing (%.3f) should be far worse than manual (%.3f)", hc.DistributedFrac(), frac)
	}
}

func TestYCSBATouchesOneTuple(t *testing.T) {
	w := YCSBA(YCSBConfig{Rows: 1000, Txns: 2000, Seed: 4})
	writes := 0
	for _, txn := range w.Trace.Txns {
		if got := len(txn.Tuples()); got != 1 {
			t.Fatalf("YCSB-A txn touches %d tuples", got)
		}
		if !txn.ReadOnly() {
			writes++
		}
	}
	frac := float64(writes) / float64(w.Trace.Len())
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("write fraction = %.3f, want ~0.5", frac)
	}
}

func TestYCSBEScans(t *testing.T) {
	w := YCSBE(YCSBConfig{Rows: 1000, Txns: 2000, MaxScan: 50, Seed: 5})
	scans, maxLen := 0, 0
	for _, txn := range w.Trace.Txns {
		n := len(txn.Tuples())
		if n > 1 {
			scans++
			// Scan tuples must be contiguous keys.
			tuples := txn.Tuples()
			for i := 1; i < len(tuples); i++ {
				if tuples[i].Key != tuples[i-1].Key+1 {
					t.Fatalf("scan not contiguous: %v", tuples)
				}
			}
		}
		if n > maxLen {
			maxLen = n
		}
	}
	if frac := float64(scans) / float64(w.Trace.Len()); frac < 0.8 {
		t.Errorf("scan fraction = %.3f, want ~0.95 (some scans have length 1)", frac)
	}
	if maxLen > 50 {
		t.Errorf("scan length %d exceeds MaxScan", maxLen)
	}
}

func TestEpinionsCommunityLocality(t *testing.T) {
	cfg := EpinionsConfig{Users: 400, Items: 200, Communities: 4, Txns: 1000, Seed: 6}
	w := Epinions(cfg)
	// The DB must contain all four tables with the configured sizes.
	if got := w.DB.Table("users").Len(); got != 400 {
		t.Errorf("users = %d", got)
	}
	if got := w.DB.Table("items").Len(); got != 200 {
		t.Errorf("items = %d", got)
	}
	if w.DB.Table("reviews").Len() == 0 || w.DB.Table("trust").Len() == 0 {
		t.Error("empty reviews/trust")
	}
	// Manual strategy must exist and be lookup-based.
	if w.Manual == nil {
		t.Fatal("manual strategy missing")
	}
	c := partition.Evaluate(w.Trace, w.Manual(2), w.Resolver())
	if c.DistributedFrac() > 0.25 {
		t.Errorf("manual epinions frac = %.3f; students' strategy should do better", c.DistributedFrac())
	}
}

func TestRandomIsHopeless(t *testing.T) {
	w := Random(RandomConfig{Rows: 5000, Txns: 1000, Seed: 7})
	for _, txn := range w.Trace.Txns {
		if txn.ReadOnly() {
			t.Fatal("random txns must write")
		}
	}
	// Any 2-partition split leaves ~half the txns distributed.
	hash := &partition.Hash{K: 2, KeyColumn: w.KeyColumns}
	c := partition.Evaluate(w.Trace, hash, w.Resolver())
	if c.DistributedFrac() < 0.35 {
		t.Errorf("random hash frac = %.3f, want ~0.5", c.DistributedFrac())
	}
}

func TestTPCESchemaAndTrace(t *testing.T) {
	w := TPCE(TPCEConfig{Customers: 100, Securities: 50, Txns: 2000, Seed: 8})
	if got := len(w.DB.TableNames()); got != 16 {
		t.Errorf("TPC-E-lite tables = %d, want 16", got)
	}
	resolve := w.Resolver()
	reads, writes := 0, 0
	for _, txn := range w.Trace.Txns {
		for _, a := range txn.Accesses {
			if resolve(a.Tuple) == nil {
				t.Fatalf("unresolvable %v", a.Tuple)
			}
			if a.Write {
				writes++
			} else {
				reads++
			}
		}
	}
	// TPC-E is read-intensive.
	if writes*2 > reads {
		t.Errorf("reads=%d writes=%d; TPC-E should be read-heavy", reads, writes)
	}
	if w.Manual != nil {
		t.Error("paper reports no manual strategy for TPC-E")
	}
}

// TestTPCCRuntimeOnCluster runs the five-transaction TPCCStream mix
// through the cluster under the manual warehouse partitioning, a fixed
// number of transactions per client, and checks integrity: nothing fails,
// d_next_o_id equals the number of orders per district, every order has
// o_ol_cnt order lines, the distributed fraction is near the
// multi-warehouse rate, and a rerun draws the same per-client streams.
func TestTPCCRuntimeOnCluster(t *testing.T) {
	cfg := TPCCConfig{Warehouses: 4, Customers: 20, Items: 100, InitialOrders: 5, Seed: 9}
	const k = 2
	run := func() (*cluster.Cluster, *driver.Result) {
		db := storage.NewDatabase()
		TPCCPopulate(db, cfg)
		c, co, err := cluster.Deploy(cluster.Config{Nodes: k, LockTimeout: 2 * time.Second}, db, TPCCManual(cfg, k))
		if err != nil {
			t.Fatal(err)
		}
		return c, driver.Run(co, driver.Config{Clients: 8, Ops: 50, Seed: 1}, TPCCStream(cfg))
	}
	c, res := run()
	defer c.Close()
	if res.Committed == 0 || res.Failed != 0 {
		t.Fatalf("committed %d, failed %d; want every transaction committed", res.Committed, res.Failed)
	}
	// Distributed fraction should be near the multi-warehouse rate, far
	// from 100%.
	if f := res.DistributedFrac(); f > 0.4 {
		t.Errorf("distributed fraction %.2f too high for warehouse partitioning", f)
	}
	snap, err := cluster.Logical(c)
	if err != nil {
		t.Fatal(err)
	}
	orders := map[int64]int64{} // district key -> orders
	olCnt := map[int64]int64{}  // order key -> o_ol_cnt
	lines := map[int64]int64{}  // order key -> order_line rows
	snap.Visit("orders", func(key int64, row storage.Row) {
		orders[key/tpccOrderSpace]++
		olCnt[key], _ = row[6].AsInt()
	})
	snap.Visit("order_line", func(key int64, _ storage.Row) { lines[key/tpccLineSpace]++ })
	snap.Visit("district", func(key int64, row storage.Row) {
		if next, _ := row[3].AsInt(); orders[key] != next {
			t.Errorf("district %d: next_o_id=%d but %d orders", key, next, orders[key])
		}
	})
	for oKey, want := range olCnt {
		if lines[oKey] != want {
			t.Errorf("order %d: o_ol_cnt=%d but %d order lines", oKey, want, lines[oKey])
		}
	}
	if len(lines) != len(olCnt) {
		t.Errorf("order lines of %d orders, %d orders", len(lines), len(olCnt))
	}
	c2, res2 := run()
	c2.Close()
	if !reflect.DeepEqual(res.ClientSigs, res2.ClientSigs) {
		t.Errorf("rerun drew different streams: %x vs %x", res.ClientSigs, res2.ClientSigs)
	}
}

// TestTPCCPopulateAppliesDefaults populates with Districts and Customers
// unset and checks that every district and customer key the streams
// address (they default the same config) exists.
func TestTPCCPopulateAppliesDefaults(t *testing.T) {
	cfg := TPCCConfig{Warehouses: 2, Items: 50, InitialOrders: 3}
	db := storage.NewDatabase()
	TPCCPopulate(db, cfg)
	full := cfg.withDefaults()
	k := tpccKeys{full}
	for w := 1; w <= full.Warehouses; w++ {
		for d := 1; d <= full.Districts; d++ {
			if _, ok := db.Table("district").Get(k.district(w, d)); !ok {
				t.Fatalf("district (%d,%d) not populated", w, d)
			}
			for c := 1; c <= full.Customers; c++ {
				if _, ok := db.Table("customer").Get(k.customer(w, d, c)); !ok {
					t.Fatalf("customer (%d,%d,%d) not populated", w, d, c)
				}
			}
		}
	}
}

func TestSimplecountWorkload(t *testing.T) {
	cfg := SimplecountConfig{Rows: 1000, Partitions: 4}
	w := Simplecount(cfg, 500, 1)
	if w.DB.Table("simplecount").Len() != 1000 {
		t.Fatal("bad row count")
	}
	for _, txn := range w.Trace.Txns {
		if len(txn.Accesses) != 2 {
			t.Fatal("simplecount txns read exactly 2 rows")
		}
	}
	// The strategy splits the id space evenly.
	strat := SimplecountStrategy(cfg)
	for n := 0; n < 4; n++ {
		if got := cluster.SplitDatabase(w.DB, strat, n).Table("simplecount").Len(); got != 250 {
			t.Fatalf("node %d holds %d rows, want 250", n, got)
		}
	}
	// Strategy routes id=0 to node 0 and id=999 to node 3.
	r0 := strat.Locate(workload.TupleID{Table: "simplecount", Key: 0}, mapRowSC{"id": datum.NewInt(0)})
	r999 := strat.Locate(workload.TupleID{Table: "simplecount", Key: 999}, mapRowSC{"id": datum.NewInt(999)})
	if len(r0) != 1 || r0[0] != 0 || len(r999) != 1 || r999[0] != 3 {
		t.Errorf("routing: 0->%v 999->%v", r0, r999)
	}
}

// TestSimplecountStreamPlacement draws many ops at 1, 2 and 5 partitions
// and locates both ids of each under SimplecountStrategy: a distributed
// op's ids live on different partitions, a local op's on the same one,
// and at one partition a distributed op falls back to local.
func TestSimplecountStreamPlacement(t *testing.T) {
	for _, parts := range []int{1, 2, 5} {
		cfg := SimplecountConfig{Rows: 1000, Partitions: parts}
		strat := SimplecountStrategy(cfg)
		locate := func(id int64) int {
			if id < 0 || id >= int64(cfg.Rows) {
				t.Fatalf("partitions=%d: id %d outside the table", parts, id)
			}
			p := strat.Locate(workload.TupleID{Table: "simplecount", Key: id}, mapRowSC{"id": datum.NewInt(id)})
			if len(p) != 1 {
				t.Fatalf("partitions=%d: id %d locates to %v", parts, id, p)
			}
			return p[0]
		}
		for _, distributed := range []bool{false, true} {
			stream := SimplecountStream(cfg, distributed)(3, 42)
			for i := 0; i < 2000; i++ {
				op := stream.Next()
				var a, b int64
				if _, err := fmt.Sscanf(op.Sig, "sc %d %d", &a, &b); err != nil {
					t.Fatalf("sig %q: %v", op.Sig, err)
				}
				split := locate(a) != locate(b)
				if want := distributed && parts > 1; split != want {
					t.Fatalf("partitions=%d distributed=%v: ids %d, %d on partitions %d, %d",
						parts, distributed, a, b, locate(a), locate(b))
				}
			}
		}
	}
}

type mapRowSC map[string]datum.D

func (m mapRowSC) Get(c string) datum.D { return m[c] }

// virtualRowsParseAll is virtualRows without its INSERT filter: it parses
// every statement of the trace.
func virtualRowsParseAll(w *Workload) map[workload.TupleID]*storage.RowView {
	out := make(map[workload.TupleID]*storage.RowView)
	for _, t := range w.Trace.Txns {
		for _, src := range t.SQL {
			stmt, err := sqlparse.Parse(src)
			if err != nil {
				continue
			}
			ins, ok := stmt.(*sqlparse.Insert)
			if !ok {
				continue
			}
			tbl := w.DB.Table(ins.Table)
			if tbl == nil {
				continue
			}
			schema := tbl.Schema
			row := make(storage.Row, len(schema.Columns))
			for i, col := range ins.Cols {
				if ci := schema.ColIndex(col); ci >= 0 {
					row[ci] = ins.Values[i]
				}
			}
			key, ok := row[schema.KeyIndex()].AsInt()
			if !ok {
				continue
			}
			id := workload.TupleID{Table: ins.Table, Key: key}
			if _, dup := out[id]; !dup {
				out[id] = &storage.RowView{Schema: schema, Data: row}
			}
		}
	}
	return out
}

// TestVirtualRowsMatchesParseAll holds virtualRows, which parses only the
// statements that start with INSERT, to the rows found by parsing every
// statement. reflect.DeepEqual follows the map's pointers, so the rows
// compare by value.
func TestVirtualRowsMatchesParseAll(t *testing.T) {
	tpcc := TPCC(TPCCConfig{Warehouses: 2, Customers: 10, Items: 100, InitialOrders: 5, Txns: 500, Seed: 2})
	handWritten := &Workload{DB: tpcc.DB, Trace: &workload.Trace{Txns: []*workload.Txn{{SQL: []string{
		"insert into history (h_id, h_w_id, h_amount) values (900001, 1, 10.5)",
		"\n\tINSERT INTO history (h_id, h_w_id, h_amount) VALUES (900002, 2, 7)",
		"INSERT INTO history (h_id, h_w_id) VALUES (900003",
		"INSERT INTO history (h_id, h_w_id) VALUES (900004, 1)",
		"  Insert Into history (h_id) VALUES (900004)",
		"SELECT * FROM history WHERE h_id = 900005",
		"UPDATE history SET h_amount = h_amount -1 WHERE h_id = 900001",
		"INSERT INTO history (h_id, h_w_id, h_amount) VALUES (900006, 1, -2.5)",
		"INSERT INTO history (h_id, h_w_id, h_amount) VALUES (-900007, -1, 3)",
		"INSERT INTO item (i_name, i_id) VALUES ('it''s', 900010)",
		"INSERT INTO history (h_w_id, h_amount) VALUES (1, 3)",
		"INSERT INTO history (h_id, h_w_id) VALUES (900008, 1)",
		"INSERT INTO history (h_id, h_w_id) VALUES (900008, 2)",
		"INSERT INTO history (h_id, h_w_id, h_id) VALUES (900011, 1, 900012)",
	}}}}}
	for _, tc := range []struct {
		name string
		w    *Workload
		min  int
	}{
		{"tpcc-2w", tpcc, 1},
		{"epinions", Epinions(EpinionsConfig{Users: 300, Items: 150, Communities: 8, Txns: 500, Seed: 7}), 0},
		{"tpce", TPCE(TPCEConfig{Customers: 100, Securities: 50, Txns: 500, Seed: 8}), 1},
		{"ycsb-a", YCSBA(YCSBConfig{Rows: 1000, Txns: 500, Seed: 4}), 0},
		{"hand-written", handWritten, 8},
	} {
		got, want := tc.w.virtualRows(), virtualRowsParseAll(tc.w)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: virtualRows has %d rows, parsing every statement finds %d, and they differ",
				tc.name, len(got), len(want))
		}
		if len(want) < tc.min {
			t.Errorf("%s: %d virtual rows, want at least %d", tc.name, len(want), tc.min)
		}
	}

	// The hand-written rows' values, read without the oracle: the first
	// INSERT of a key wins, a doubled quote is one quote, and a key column
	// named twice takes its last value, as the row does.
	rows := handWritten.virtualRows()
	for _, tc := range []struct {
		table string
		key   int64
		col   string
		want  datum.D
	}{
		{"history", 900008, "h_w_id", datum.NewInt(1)},
		{"history", 900006, "h_amount", datum.NewFloat(-2.5)},
		{"history", -900007, "h_w_id", datum.NewInt(-1)},
		{"item", 900010, "i_name", datum.NewString("it's")},
		{"history", 900012, "h_w_id", datum.NewInt(1)},
	} {
		rv := rows[workload.TupleID{Table: tc.table, Key: tc.key}]
		if rv == nil {
			t.Errorf("no virtual row %s:%d", tc.table, tc.key)
		} else if got := rv.Get(tc.col); !datum.Equal(got, tc.want) {
			t.Errorf("%s:%d %s = %v, want %v", tc.table, tc.key, tc.col, got, tc.want)
		}
	}
}

// TestVirtualRowsAllocs pins what reading a trace's INSERTs allocates per
// INSERT: the map's and the row slabs' shares, and one parse per shape.
// Parsing every INSERT, and allocating each row and its RowView, cost
// about 11 objects; two remained when only the parse went.
func TestVirtualRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	w := TPCC(TPCCConfig{Warehouses: 2, Customers: 10, Items: 100, InitialOrders: 5, Txns: 2000, Seed: 2})
	inserts := 0
	for _, txn := range w.Trace.Txns {
		for _, src := range txn.SQL {
			if startsWithInsert(src) {
				inserts++
			}
		}
	}
	perInsert := testing.AllocsPerRun(3, func() { w.virtualRows() }) / float64(inserts)
	if perInsert > 0.25 {
		t.Errorf("reading an INSERT allocates %.2f objects, want <= 0.25", perInsert)
	}
	t.Logf("%.2f objects per INSERT over %d INSERTs", perInsert, inserts)
}

// TestResolverAllocs pins resolving a tuple to no allocation. A tuple the
// trace inserted has its row boxed once, when the workload's virtual rows
// are built; a stored row is read into its table's scratch view, where
// copying it into a fresh slice and boxing a RowView cost 2 objects.
func TestResolverAllocs(t *testing.T) {
	w := TPCC(TPCCConfig{Warehouses: 2, Customers: 10, Items: 100, InitialOrders: 5, Txns: 500, Seed: 2})
	var virtual workload.TupleID
	for v := range w.virtualRows() {
		if !w.DB.Table(v.Table).Has(v.Key) {
			virtual = v
			break
		}
	}
	stored := workload.TupleID{Table: "customer"}
	w.DB.Table("customer").ScanAllKeys(func(key int64) bool { stored.Key = key; return false })
	resolve := w.Resolver()
	for _, tc := range []struct {
		kind string
		id   workload.TupleID
	}{{"virtual", virtual}, {"stored", stored}} {
		if resolve(tc.id) == nil {
			t.Fatalf("%s row %v: the resolver finds no row", tc.kind, tc.id)
		}
		if n := testing.AllocsPerRun(100, func() { resolve(tc.id) }); n != 0 {
			t.Errorf("resolving %s row %v allocates %v objects, want 0", tc.kind, tc.id, n)
		}
	}
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestTPCCTraceAllocs pins what generating a TPC-C transaction allocates
// at live-tpcc's configuration: its accesses, one string holding all its
// statements and the slice of substrings over it, the Txn, NewOrder's item
// list, and the generator state's share. Formatting each statement with
// fmt read about 39 objects per transaction.
func TestTPCCTraceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	txns := liveTPCCConfig(0.05).Txns
	perTxn := testing.AllocsPerRun(3, func() { tpccTrace(liveTPCCConfig(0.05)) }) / float64(txns)
	if perTxn > 8 {
		t.Errorf("generating a TPC-C transaction allocates %.2f objects, want <= 8", perTxn)
	}
}

// traceSink keeps BenchmarkTPCCTrace's result reachable.
var traceSink *workload.Trace

// BenchmarkTPCCTrace measures TPC-C trace generation alone (no database)
// at live-tpcc's configuration scaled down: time, bytes and objects per
// generated transaction.
func BenchmarkTPCCTrace(b *testing.B) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traceSink = tpccTrace(liveTPCCConfig(0.05))
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	txns := float64(b.N * liveTPCCConfig(0.05).Txns)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/txns, "ns/txn")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/txns, "B/txn")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/txns, "objects/txn")
}

package workloads

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/lookup"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
)

type stmtCase struct {
	p    *sqlparse.Prepared
	args []datum.D
}

// text is the statement as the clients used to send it: the arguments
// formatted into the SQL.
func (c stmtCase) text() string {
	vals := make([]any, len(c.args))
	for i, a := range c.args {
		vals[i] = a
	}
	return fmt.Sprintf(strings.ReplaceAll(c.p.SQL(), "?", "%v"), vals...)
}

// stmtFixture is a small database holding every table stmts.go addresses,
// and one call of every statement there, in an order a client could issue
// them (each insert creates what later statements read or delete).
func stmtFixture() (cfg TPCCConfig, db *storage.Database, cases []stmtCase) {
	cfg = TPCCConfig{Warehouses: 4, Districts: 3, Customers: 6, Items: 30, InitialOrders: 3}.withDefaults()
	k := tpccKeys{cfg}
	db = storage.NewDatabase()
	TPCCPopulate(db, cfg)
	users := db.MustCreateTable(ycsbSchema())
	counts := db.MustCreateTable(SimplecountSchema())
	for i := int64(0); i < 40; i++ {
		if err := users.Insert(storage.Row{datum.NewInt(i), datum.NewString("v")}); err != nil {
			panic(err)
		}
		if err := counts.Insert(storage.Row{datum.NewInt(i), datum.NewInt(0)}); err != nil {
			panic(err)
		}
	}

	const w, d, c, item, remote = 2, 3, 4, 7, 4
	o := cfg.InitialOrders // the next order id of a freshly populated district
	dk, ck, sk := k.district(w, d), k.customer(w, d, c), k.stock(remote, item)
	oKey := k.order(w, d, o)
	lo, hi := dk*tpccOrderSpace, (dk+1)*tpccOrderSpace-1
	add := func(p *sqlparse.Prepared, args ...datum.D) { cases = append(cases, stmtCase{p, args}) }

	add(selWarehouse, num(w))
	add(updDistrictNextByKey, num(dk), num(w))
	add(selDistrictNextByKey, num(dk), num(w))
	add(selCustomerByKey, num(ck), num(w))
	add(insOrder, num(oKey), num(w), num(d), num(o), num(c), num(2))
	add(insNewOrder, num(oKey), num(w), num(d), num(o))
	add(selItem, num(item))
	add(updStockByKey, num(sk), num(remote))
	add(selStockByKey, num(sk), num(remote))
	add(insOrderLine, num(k.orderLine(oKey, 1)), num(w), num(d), num(o), num(1), num(item), num(remote))
	add(insOrderLine, num(k.orderLine(oKey, 2)), num(w), num(d), num(o), num(2), num(item+1), num(w))
	add(updWarehouse, num(w))
	add(updDistrictYtdByKey, num(dk), num(w))
	add(updCustomerPayByKey, num(ck), num(w))
	add(insHistory, num(int64(1)<<40|1), num(w))
	add(selLastOrder, num(w), num(lo), num(hi))
	add(selOrderLines, num(w), num(oKey*tpccLineSpace), num((oKey+1)*tpccLineSpace-1))
	add(selLineItems, num(w), num(lo*tpccLineSpace), num(hi*tpccLineSpace))
	add(selOldNewOrder, num(w), num(lo), num(hi))
	add(selOrder, num(w), num(oKey))
	add(updOrder, num(w), num(oKey))
	add(delNewOrder, num(w), num(oKey))
	add(updCustomerDlvByKey, num(ck), num(w))
	add(selUser, num(17))
	add(updUser, num(17))
	add(selCount, num(5))

	// A small Epinions graph beside them; user u has reviews and trust
	// edges to update.
	g := generateEpinions(EpinionsConfig{Users: 20, Items: 10, Communities: 2}.withDefaults(), rand.New(rand.NewSource(1)))
	ep := epinionsDB(g)
	for _, tn := range ep.TableNames() {
		tbl := db.MustCreateTable(ep.Table(tn).Schema)
		ep.Table(tn).ScanAll(func(_ int64, row storage.Row) bool {
			if err := tbl.Insert(row); err != nil {
				panic(err)
			}
			return true
		})
	}
	const u, i = 3, 4
	add(selTrustBySource, num(u))
	add(selReviewsByItem, num(i))
	add(selTopReviewsByItem, num(i))
	add(selTopReviewsByUser, num(u))
	add(selMember, num(u))
	add(updMemberRep, num(u))
	add(updItemTitle, num(i))
	add(updReviewRating, num(4), num(g.byUser[u][0]))
	add(updTrustValue, num(0), num(g.bySource[u][0]))
	return cfg, db, cases
}

// stmtStrategies returns a hash, a range-predicate and a lookup-table
// strategy over the fixture; the lookup tables hold the range strategy's
// placement tuple by tuple.
func stmtStrategies(cfg TPCCConfig, db *storage.Database) (*partition.Hash, partition.Strategy, *partition.Lookup) {
	const k = 2
	keyCols := TPCCKeyColumns()
	keyCols["usertable"], keyCols["simplecount"] = "ycsb_key", "id"
	keyCols["users"], keyCols["items"], keyCols["reviews"], keyCols["trust"] = "u_id", "i_id", "r_id", "t_id"
	manual := TPCCManual(cfg, k)
	router := lookup.NewRouter(k)
	for _, tn := range db.TableNames() {
		tbl, idx := db.Table(tn), router.Table(tn)
		tbl.ScanAll(func(key int64, row storage.Row) bool {
			idx.Set(key, manual.Locate(workload.TupleID{Table: tn, Key: key}, storage.RowView{Schema: tbl.Schema, Data: row}))
			return true
		})
	}
	return &partition.Hash{K: k, KeyColumn: keyCols}, manual, &partition.Lookup{K: k, Router: router, KeyColumn: keyCols}
}

// TestPreparedMatchesFormattedSQL is the differential for the prepared
// statement path: for one call of every statement the clients issue,
// binding arguments and parsing the formatted text give equal routing
// constraints, equal routes under hash, range-predicate and lookup-table
// strategies, and equal result rows and database contents on a populated
// 2-node cluster — also when a wait-die abort makes the coordinator
// re-execute the same bound statements.
func TestPreparedMatchesFormattedSQL(t *testing.T) {
	cfg, db, cases := stmtFixture()
	hash, manual, lkp := stmtStrategies(cfg, db)

	for _, c := range cases {
		text := c.text()
		stmt, err := sqlparse.Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		table, cons, ok := sqlparse.Constraints(stmt)
		pcons, pok := c.p.Constraints(nil, c.args)
		if table != c.p.Table() || ok != pok || !reflect.DeepEqual(cons, pcons) {
			t.Fatalf("%s\n parsed: %q %+v %v\n  bound: %q %+v %v", text, table, cons, ok, c.p.Table(), pcons, pok)
		}
		for _, s := range []partition.Strategy{hash, manual, lkp} {
			if want, got := s.RouteStmt(table, cons, ok), s.RouteStmt(c.p.Table(), pcons, pok); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s under %s: parsed routes %+v, bound %+v", text, s.Name(), want, got)
			}
		}
	}

	newCluster := func() (*cluster.Cluster, *cluster.Coordinator) {
		c, co, err := cluster.Deploy(cluster.Config{Nodes: 2, LockTimeout: 2 * time.Second}, db, lkp)
		if err != nil {
			t.Fatal(err)
		}
		return c, co
	}
	adhocC, adhoc := newCluster()
	defer adhocC.Close()
	boundC, bound := newCluster()
	defer boundC.Close()

	for _, c := range cases {
		var want, got []storage.Row
		if _, _, err := adhoc.RunTxn(func(tx *cluster.Txn) (err error) {
			want, err = tx.Exec(c.text())
			return err
		}); err != nil {
			t.Fatalf("%s: %v", c.text(), err)
		}
		if _, _, err := bound.RunTxn(func(tx *cluster.Txn) (err error) {
			got, err = tx.ExecPrepared(c.p, c.args...)
			return err
		}); err != nil {
			t.Fatalf("%s prepared: %v", c.text(), err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: formatted SQL returns %v, prepared %v", c.text(), want, got)
		}
	}
	requireSameData(t, adhocC, boundC)

	// A Payment that dies once: an older transaction holds the district
	// row, so the younger Payment's second statement aborts it (undoing
	// the first) and the retry runs the same bound statements again.
	call := func(p *sqlparse.Prepared) stmtCase {
		for _, c := range cases {
			if c.p == p {
				return c
			}
		}
		t.Fatalf("no call of %q in the fixture", p.SQL())
		return stmtCase{}
	}
	payment := []stmtCase{call(updWarehouse), call(updDistrictYtdByKey), call(updCustomerPayByKey),
		{insHistory, []datum.D{num(int64(1)<<40 | 2), num(2)}}}
	// The holder runs in its own goroutine, holding the row until the
	// Payment's first attempt has died on it.
	held, release, holderDone := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		_, _, err := bound.RunTxn(func(tx *cluster.Txn) error {
			if _, err := tx.ExecPrepared(payment[1].p, payment[1].args...); err != nil {
				return err
			}
			close(held)
			<-release
			return nil
		})
		holderDone <- err
	}()
	select {
	case <-held:
	case err := <-holderDone:
		t.Fatalf("lock holder: %v", err)
	}
	attempts := 0
	_, aborts, err := bound.RunTxn(func(tx *cluster.Txn) error {
		attempts++
		for _, c := range payment {
			if _, err := tx.ExecPrepared(c.p, c.args...); err != nil {
				if attempts == 1 {
					close(release)
					if herr := <-holderDone; herr != nil {
						t.Error(herr)
					}
				}
				return err
			}
		}
		return nil
	})
	if err != nil || aborts == 0 || attempts != aborts+1 {
		t.Fatalf("payment behind a lock holder: err %v, %d aborts, %d attempts; want a retried commit", err, aborts, attempts)
	}
	if _, _, err := adhoc.RunTxn(func(tx *cluster.Txn) error {
		for _, c := range append([]stmtCase{payment[1]}, payment...) {
			if _, err := tx.Exec(c.text()); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	requireSameData(t, adhocC, boundC)
}

// requireSameData asserts two clusters hold the same rows on every node.
func requireSameData(t *testing.T, a, b *cluster.Cluster) {
	t.Helper()
	for node := 0; node < 2; node++ {
		adb, bdb := a.Node(node).DB(), b.Node(node).DB()
		for _, tn := range adb.TableNames() {
			var rows [2][]storage.Row
			for i, db := range []*storage.Database{adb, bdb} {
				db.Table(tn).ScanAll(func(_ int64, row storage.Row) bool {
					rows[i] = append(rows[i], row)
					return true
				})
			}
			if !reflect.DeepEqual(rows[0], rows[1]) {
				t.Fatalf("node %d table %s differs:\n formatted SQL: %v\n      prepared: %v", node, tn, rows[0], rows[1])
			}
		}
	}
}

package cluster_test

import (
	"fmt"
	"strings"
	"testing"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workloads"
)

// newOrderSQL is one TPC-C NewOrder as the benchmark streams issue it:
// keyed and warehouse-qualified statements, all parameters integers.
var newOrderSQL = []string{
	"SELECT * FROM warehouse WHERE w_id = ?",
	"UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_key = ? AND d_w_id = ?",
	"SELECT d_next_o_id FROM district WHERE d_key = ? AND d_w_id = ?",
	"SELECT * FROM customer WHERE c_key = ? AND c_w_id = ?",
	"INSERT INTO orders (o_key, o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES (?, ?, ?, ?, ?, 0, ?)",
	"INSERT INTO new_order (no_key, no_w_id, no_d_id, no_o_id) VALUES (?, ?, ?, ?)",
	"SELECT * FROM item WHERE i_id = ?",
	"UPDATE stock SET s_quantity = s_quantity - 1, s_ytd = s_ytd + 1 WHERE s_key = ? AND s_w_id = ?",
	"INSERT INTO order_line (ol_key, ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_supply_w_id, ol_amount) VALUES (?, ?, ?, ?, ?, ?, ?, 9.99)",
}

const (
	noWarehouse = iota
	noBumpDistrict
	noReadDistrict
	noCustomer
	noOrder
	noNewOrder
	noItem
	noStock
	noOrderLine
)

// BenchmarkStmtPath runs one 10-line NewOrder (33 statements) per
// iteration on a 2-node cluster with every modelled delay zero, through the
// ad-hoc path (format, lex, parse, extract) and through prepared
// statements (bind). The two arms issue the same statements with the same
// values; what differs is the text handling, which -memprofile shows:
//
//	go test -run '^$' -bench StmtPath -benchmem -memprofile mem.out ./internal/cluster
func BenchmarkStmtPath(b *testing.B) {
	prepared := make([]*sqlparse.Prepared, len(newOrderSQL))
	formats := make([]string, len(newOrderSQL))
	for i, sql := range newOrderSQL {
		prepared[i] = sqlparse.MustPrepare(sql)
		formats[i] = strings.ReplaceAll(sql, "?", "%d")
	}
	b.Run("exec-sql", func(b *testing.B) {
		benchNewOrder(b, func(t *cluster.Txn, stmt int, args ...int64) ([]storage.Row, error) {
			vals := make([]any, len(args))
			for i, a := range args {
				vals[i] = a
			}
			return t.Exec(fmt.Sprintf(formats[stmt], vals...))
		})
	})
	b.Run("exec-prepared", func(b *testing.B) {
		benchNewOrder(b, func(t *cluster.Txn, stmt int, args ...int64) ([]storage.Row, error) {
			vals := make([]datum.D, len(args))
			for i, a := range args {
				vals[i] = datum.NewInt(a)
			}
			return t.ExecPrepared(prepared[stmt], vals...)
		})
	})
}

func benchNewOrder(b *testing.B, exec func(t *cluster.Txn, stmt int, args ...int64) ([]storage.Row, error)) {
	cfg := workloads.TPCCConfig{Warehouses: 2, Districts: 2, Customers: 5, Items: 20, InitialOrders: 1}
	db := storage.NewDatabase()
	workloads.TPCCPopulate(db, cfg)
	c, co, err := cluster.Deploy(cluster.Config{Nodes: 2}, db, workloads.TPCCManual(cfg, 2))
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	// Warehouse 1, district 1, customer 1, items 0..9 supplied locally;
	// the surrogate keys are read from the populated rows.
	const w, d, cust, lines = 1, 1, 1, 10
	keyOf := func(table string, match func(storage.Row) bool) int64 {
		key := int64(-1)
		db.Table(table).ScanAll(func(k int64, row storage.Row) bool {
			if match(row) {
				key = k
			}
			return key < 0
		})
		if key < 0 {
			b.Fatalf("no %s row for the benchmark's NewOrder", table)
		}
		return key
	}
	dKey := keyOf("district", func(r storage.Row) bool { return r[1].I == w && r[2].I == d })
	cKey := keyOf("customer", func(r storage.Row) bool { return r[1].I == w && r[2].I == d && r[3].I == cust })
	var sKeys [lines]int64
	for i := range sKeys {
		sKeys[i] = keyOf("stock", func(r storage.Row) bool { return r[1].I == w && r[2].I == int64(i) })
	}

	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		oKey := int64(1)<<40 + int64(n) // clear of every populated order
		_, _, err := co.RunTxn(func(t *cluster.Txn) error {
			step := func(stmt int, args ...int64) ([]storage.Row, error) { return exec(t, stmt, args...) }
			if _, err := step(noWarehouse, w); err != nil {
				return err
			}
			if _, err := step(noBumpDistrict, dKey, w); err != nil {
				return err
			}
			rows, err := step(noReadDistrict, dKey, w)
			if err != nil {
				return err
			}
			o := rows[0][0].I - 1
			if _, err := step(noCustomer, cKey, w); err != nil {
				return err
			}
			if _, err := step(noOrder, oKey, w, d, o, cust, lines); err != nil {
				return err
			}
			if _, err := step(noNewOrder, oKey, w, d, o); err != nil {
				return err
			}
			for l := int64(0); l < lines; l++ {
				if _, err := step(noItem, l); err != nil {
					return err
				}
				if _, err := step(noStock, sKeys[l], w); err != nil {
					return err
				}
				if _, err := step(noOrderLine, oKey*16+l, w, d, o, l+1, l, w); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

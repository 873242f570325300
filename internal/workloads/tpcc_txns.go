package workloads

import (
	"fmt"
	"math/rand"

	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
)

// tpccState tracks per-district order bookkeeping while generating traces.
type tpccState struct {
	cfg  TPCCConfig
	keys tpccKeys
	// nextO[dKey] is the next order id to assign.
	nextO map[int64]int
	// oldestNO[dKey] is the oldest undelivered new_order id.
	oldestNO map[int64]int
	// pending[oKey] remembers order composition for later delivery/status.
	pending map[int64]tpccOrder
	// recent[dKey] holds the last few orders for status/stock-level reads.
	recent map[int64][]int64 // order keys
	hist   int64
}

type tpccOrder struct {
	cid   int
	items []int
}

// initialOrder reproduces the deterministic composition TPCCPopulate gave
// to preloaded order o.
func initialOrder(cfg TPCCConfig, o int) tpccOrder {
	olCnt := 5 + (o % 11)
	items := make([]int, olCnt)
	for l := 1; l <= olCnt; l++ {
		items[l-1] = (o*13 + l*101) % cfg.Items
	}
	return tpccOrder{cid: 1 + (o*7)%cfg.Customers, items: items}
}

func newTPCCState(cfg TPCCConfig) *tpccState {
	st := &tpccState{
		cfg:      cfg,
		keys:     tpccKeys{cfg},
		nextO:    make(map[int64]int),
		oldestNO: make(map[int64]int),
		pending:  make(map[int64]tpccOrder),
		recent:   make(map[int64][]int64),
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= cfg.Districts; d++ {
			dk := st.keys.district(w, d)
			st.nextO[dk] = cfg.InitialOrders
			st.oldestNO[dk] = cfg.InitialOrders * 2 / 3
			for o := cfg.InitialOrders * 2 / 3; o < cfg.InitialOrders; o++ {
				st.pending[st.keys.order(w, d, o)] = initialOrder(cfg, o)
			}
			lo := cfg.InitialOrders - 5
			if lo < 0 {
				lo = 0
			}
			for o := lo; o < cfg.InitialOrders; o++ {
				st.recent[dk] = append(st.recent[dk], st.keys.order(w, d, o))
			}
		}
	}
	return st
}

func (st *tpccState) pushRecent(dk, oKey int64) {
	r := append(st.recent[dk], oKey)
	if len(r) > 20 {
		r = r[len(r)-20:]
	}
	st.recent[dk] = r
}

// TPCC builds the workload bundle: the populated database and a trace of
// the standard five-transaction mix (NewOrder 45%, Payment 43%,
// OrderStatus 4%, Delivery 4%, StockLevel 4%). About 10.7% of generated
// transactions touch more than one warehouse, matching §6.1.
func TPCC(cfg TPCCConfig) *Workload {
	cfg = cfg.withDefaults()
	db := storage.NewDatabase()
	TPCCPopulate(db, cfg, 1, cfg.Warehouses, true)
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := newTPCCState(cfg)
	tr := workload.NewTrace()
	for i := 0; i < cfg.Txns; i++ {
		var acc []workload.Access
		var sql []string
		switch p := rng.Intn(100); {
		case p < 45:
			acc, sql = st.newOrderTrace(rng)
		case p < 88:
			acc, sql = st.paymentTrace(rng)
		case p < 92:
			acc, sql = st.orderStatusTrace(rng)
		case p < 96:
			acc, sql = st.deliveryTrace(rng)
		default:
			acc, sql = st.stockLevelTrace(rng)
		}
		if len(acc) > 0 {
			tr.Add(acc, sql...)
		}
	}
	return &Workload{
		Name:       fmt.Sprintf("TPCC-%dW", cfg.Warehouses),
		DB:         db,
		Trace:      tr,
		KeyColumns: TPCCKeyColumns(),
		Manual:     func(k int) partition.Strategy { return TPCCManual(cfg, k) },
	}
}

// remoteWarehouse picks a warehouse different from w (spec: remote stock
// supply and remote payments).
func remoteWarehouse(rng *rand.Rand, w, warehouses int) int {
	if warehouses <= 1 {
		return w
	}
	o := 1 + rng.Intn(warehouses-1)
	return 1 + (w-1+o)%warehouses
}

func tup(table string, key int64, write bool) workload.Access {
	return workload.Access{Tuple: workload.TupleID{Table: table, Key: key}, Write: write}
}

func (st *tpccState) newOrderTrace(rng *rand.Rand) ([]workload.Access, []string) {
	cfg := st.cfg
	k := st.keys
	w := cfg.pickW(rng)
	d := 1 + rng.Intn(cfg.Districts)
	c := 1 + rng.Intn(cfg.Customers)
	dk := k.district(w, d)
	o := st.nextO[dk]
	st.nextO[dk]++
	oKey := k.order(w, d, o)

	nItems := 5 + rng.Intn(11)
	items := make([]int, nItems)
	supply := make([]int, nItems)
	for l := range items {
		items[l] = rng.Intn(cfg.Items)
		supply[l] = w
		if rng.Intn(100) == 0 { // 1% remote supply per line
			supply[l] = remoteWarehouse(rng, w, cfg.Warehouses)
		}
	}
	st.pending[oKey] = tpccOrder{cid: c, items: items}
	st.pushRecent(dk, oKey)

	acc := []workload.Access{
		tup("warehouse", int64(w), false),
		tup("district", dk, true),
		tup("customer", k.customer(w, d, c), false),
		tup("orders", oKey, true),
		tup("new_order", oKey, true),
	}
	sql := []string{
		fmt.Sprintf("SELECT * FROM warehouse WHERE w_id = %d", w),
		fmt.Sprintf("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = %d AND d_id = %d", w, d),
		fmt.Sprintf("SELECT * FROM customer WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d", w, d, c),
		fmt.Sprintf("INSERT INTO orders (o_key, o_w_id, o_d_id, o_id, o_c_id, o_carrier_id, o_ol_cnt) VALUES (%d, %d, %d, %d, %d, 0, %d)", oKey, w, d, o, c, nItems),
		fmt.Sprintf("INSERT INTO new_order (no_key, no_w_id, no_d_id, no_o_id) VALUES (%d, %d, %d, %d)", oKey, w, d, o),
	}
	for l, item := range items {
		sw := supply[l]
		acc = append(acc,
			tup("item", int64(item), false),
			tup("stock", k.stock(sw, item), true),
			tup("order_line", k.orderLine(oKey, l+1), true),
		)
		sql = append(sql,
			fmt.Sprintf("SELECT * FROM item WHERE i_id = %d", item),
			fmt.Sprintf("UPDATE stock SET s_quantity = s_quantity - 1, s_ytd = s_ytd + 1 WHERE s_w_id = %d AND s_i_id = %d", sw, item),
			fmt.Sprintf("INSERT INTO order_line (ol_key, ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_supply_w_id, ol_amount) VALUES (%d, %d, %d, %d, %d, %d, %d, %.2f)",
				k.orderLine(oKey, l+1), w, d, o, l+1, item, sw, 9.99),
		)
	}
	return acc, sql
}

func (st *tpccState) paymentTrace(rng *rand.Rand) ([]workload.Access, []string) {
	cfg := st.cfg
	k := st.keys
	w := cfg.pickW(rng)
	d := 1 + rng.Intn(cfg.Districts)
	c := 1 + rng.Intn(cfg.Customers)
	cw := w
	if rng.Intn(100) < 15 { // 15% remote customer
		cw = remoteWarehouse(rng, w, cfg.Warehouses)
	}
	st.hist++
	acc := []workload.Access{
		tup("warehouse", int64(w), true),
		tup("district", k.district(w, d), true),
		tup("customer", k.customer(cw, d, c), true),
		tup("history", st.hist, true),
	}
	sql := []string{
		fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + 100.00 WHERE w_id = %d", w),
		fmt.Sprintf("UPDATE district SET d_ytd = d_ytd + 100.00 WHERE d_w_id = %d AND d_id = %d", w, d),
		fmt.Sprintf("UPDATE customer SET c_balance = c_balance - 100.00, c_ytd_payment = c_ytd_payment + 100.00 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d", cw, d, c),
		fmt.Sprintf("INSERT INTO history (h_id, h_w_id, h_amount) VALUES (%d, %d, 100.00)", st.hist, w),
	}
	return acc, sql
}

func (st *tpccState) orderStatusTrace(rng *rand.Rand) ([]workload.Access, []string) {
	cfg := st.cfg
	k := st.keys
	w := cfg.pickW(rng)
	d := 1 + rng.Intn(cfg.Districts)
	dk := k.district(w, d)
	rec := st.recent[dk]
	if len(rec) == 0 {
		return nil, nil
	}
	oKey := rec[rng.Intn(len(rec))]
	ord, ok := st.pending[oKey]
	if !ok {
		ord = initialOrder(cfg, int(oKey%tpccOrderSpace))
	}
	acc := []workload.Access{
		tup("customer", k.customer(w, d, ord.cid), false),
		tup("orders", oKey, false),
	}
	o := int(oKey % tpccOrderSpace)
	sql := []string{
		fmt.Sprintf("SELECT * FROM customer WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d", w, d, ord.cid),
		fmt.Sprintf("SELECT * FROM orders WHERE o_w_id = %d AND o_d_id = %d AND o_id = %d", w, d, o),
		fmt.Sprintf("SELECT * FROM order_line WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id = %d", w, d, o),
	}
	for l := range ord.items {
		acc = append(acc, tup("order_line", k.orderLine(oKey, l+1), false))
	}
	return acc, sql
}

func (st *tpccState) deliveryTrace(rng *rand.Rand) ([]workload.Access, []string) {
	cfg := st.cfg
	k := st.keys
	w := cfg.pickW(rng)
	var acc []workload.Access
	var sql []string
	for d := 1; d <= cfg.Districts; d++ {
		dk := k.district(w, d)
		o := st.oldestNO[dk]
		if o >= st.nextO[dk] {
			continue
		}
		st.oldestNO[dk]++
		oKey := k.order(w, d, o)
		// Keep the pending entry: order-status and stock-level queries may
		// still read this order's lines after delivery.
		ord, ok := st.pending[oKey]
		if !ok {
			ord = initialOrder(cfg, o)
		}
		acc = append(acc,
			tup("new_order", oKey, true),
			tup("orders", oKey, true),
			tup("customer", k.customer(w, d, ord.cid), true),
		)
		sql = append(sql,
			fmt.Sprintf("DELETE FROM new_order WHERE no_w_id = %d AND no_d_id = %d AND no_o_id = %d", w, d, o),
			fmt.Sprintf("UPDATE orders SET o_carrier_id = 7 WHERE o_w_id = %d AND o_d_id = %d AND o_id = %d", w, d, o),
			fmt.Sprintf("SELECT * FROM order_line WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id = %d", w, d, o),
			fmt.Sprintf("UPDATE customer SET c_balance = c_balance + 50.00 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d", w, d, ord.cid),
		)
		for l := range ord.items {
			acc = append(acc, tup("order_line", k.orderLine(oKey, l+1), false))
		}
	}
	return acc, sql
}

func (st *tpccState) stockLevelTrace(rng *rand.Rand) ([]workload.Access, []string) {
	cfg := st.cfg
	k := st.keys
	w := cfg.pickW(rng)
	d := 1 + rng.Intn(cfg.Districts)
	dk := k.district(w, d)
	acc := []workload.Access{tup("district", dk, false)}
	sql := []string{
		fmt.Sprintf("SELECT * FROM district WHERE d_w_id = %d AND d_id = %d", w, d),
	}
	seen := map[int]bool{}
	for _, oKey := range st.recent[dk] {
		ord, ok := st.pending[oKey]
		if !ok {
			ord = initialOrder(cfg, int(oKey%tpccOrderSpace))
		}
		o := int(oKey % tpccOrderSpace)
		sql = append(sql, fmt.Sprintf("SELECT * FROM order_line WHERE ol_w_id = %d AND ol_d_id = %d AND ol_o_id = %d", w, d, o))
		for l, item := range ord.items {
			acc = append(acc, tup("order_line", k.orderLine(oKey, l+1), false))
			if !seen[item] {
				seen[item] = true
				acc = append(acc, tup("stock", k.stock(w, item), false))
				sql = append(sql, fmt.Sprintf("SELECT * FROM stock WHERE s_w_id = %d AND s_i_id = %d", w, item))
			}
		}
	}
	return acc, sql
}

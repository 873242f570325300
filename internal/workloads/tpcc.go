package workloads

import (
	"fmt"
	"math/rand"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/storage"
)

// TPCCConfig parameterises the TPC-C generator (App. D.2). Defaults are
// scaled down from the spec so experiments run in seconds; the structure
// (9 tables, 5 transaction types, warehouse-clustered access with ~10.7%
// multi-warehouse transactions) matches the paper.
type TPCCConfig struct {
	Warehouses int
	// Districts per warehouse (spec: 10).
	Districts int
	// Customers per district (spec: 3000).
	Customers int
	// Items in the catalogue (spec: 100000).
	Items int
	// InitialOrders per district preloaded into orders/order_line (spec:
	// 3000).
	InitialOrders int
	// Txns is the trace length.
	Txns int
	Seed int64
	// PickWarehouse, when set, overrides the uniform home-warehouse draw
	// (1-based result in [1, warehouses]). The drift experiments use it to
	// rotate a warehouse hotspot; remote-warehouse choices stay uniform.
	PickWarehouse func(rng *rand.Rand, warehouses int) int
}

// pickW draws a transaction's home warehouse.
func (c TPCCConfig) pickW(rng *rand.Rand) int {
	if c.PickWarehouse != nil {
		w := c.PickWarehouse(rng, c.Warehouses)
		if w >= 1 && w <= c.Warehouses {
			return w
		}
	}
	return 1 + rng.Intn(c.Warehouses)
}

// HotWarehousePicker returns a PickWarehouse that sends frac of
// transactions to the hot warehouse (1-based) and the rest uniformly
// across all warehouses.
func HotWarehousePicker(hot int, frac float64) func(rng *rand.Rand, warehouses int) int {
	return func(rng *rand.Rand, warehouses int) int {
		if rng.Float64() < frac {
			return 1 + (hot-1)%warehouses
		}
		return 1 + rng.Intn(warehouses)
	}
}

func (c TPCCConfig) withDefaults() TPCCConfig {
	if c.Warehouses <= 0 {
		c.Warehouses = 2
	}
	if c.Districts <= 0 {
		c.Districts = 10
	}
	if c.Customers <= 0 {
		c.Customers = 60
	}
	if c.Items <= 0 {
		c.Items = 1000
	}
	if c.InitialOrders <= 0 {
		c.InitialOrders = 30
	}
	if c.Txns <= 0 {
		c.Txns = 20000
	}
	return c
}

// Key-space layout: composite TPC-C keys are packed into int64s. Order ids
// get 24 bits per district, order lines 4 bits per order.
const (
	tpccOrderSpace = 1 << 24
	tpccLineSpace  = 16
)

// tpccKeys centralises the composite-key encoding.
type tpccKeys struct{ cfg TPCCConfig }

func (k tpccKeys) district(w, d int) int64 { return int64((w-1)*k.cfg.Districts + (d - 1)) }
func (k tpccKeys) customer(w, d, c int) int64 {
	return k.district(w, d)*int64(k.cfg.Customers) + int64(c-1)
}
func (k tpccKeys) stock(w, i int) int64 { return int64(w-1)*int64(k.cfg.Items) + int64(i) }
func (k tpccKeys) order(w, d, o int) int64 {
	return k.district(w, d)*tpccOrderSpace + int64(o)
}
func (k tpccKeys) orderLine(oKey int64, line int) int64 { return oKey*tpccLineSpace + int64(line) }

// TPCCSchemas returns the nine TPC-C table schemas with the secondary
// indexes the runtime executor uses.
func TPCCSchemas() []*storage.TableSchema {
	return []*storage.TableSchema{
		{
			Name: "warehouse",
			Columns: []storage.Column{
				{Name: "w_id", Type: storage.IntCol},
				{Name: "w_name", Type: storage.StringCol},
				{Name: "w_ytd", Type: storage.FloatCol},
			},
			Key: "w_id",
		},
		{
			Name: "district",
			Columns: []storage.Column{
				{Name: "d_key", Type: storage.IntCol},
				{Name: "d_w_id", Type: storage.IntCol},
				{Name: "d_id", Type: storage.IntCol},
				{Name: "d_next_o_id", Type: storage.IntCol},
				{Name: "d_ytd", Type: storage.FloatCol},
			},
			Key:     "d_key",
			Indexes: []string{"d_w_id"},
		},
		{
			Name: "customer",
			Columns: []storage.Column{
				{Name: "c_key", Type: storage.IntCol},
				{Name: "c_w_id", Type: storage.IntCol},
				{Name: "c_d_id", Type: storage.IntCol},
				{Name: "c_id", Type: storage.IntCol},
				{Name: "c_balance", Type: storage.FloatCol},
				{Name: "c_ytd_payment", Type: storage.FloatCol},
			},
			Key:     "c_key",
			Indexes: []string{"c_id"},
		},
		{
			Name: "history",
			Columns: []storage.Column{
				{Name: "h_id", Type: storage.IntCol},
				{Name: "h_w_id", Type: storage.IntCol},
				{Name: "h_amount", Type: storage.FloatCol},
			},
			Key: "h_id",
		},
		{
			Name: "new_order",
			Columns: []storage.Column{
				{Name: "no_key", Type: storage.IntCol},
				{Name: "no_w_id", Type: storage.IntCol},
				{Name: "no_d_id", Type: storage.IntCol},
				{Name: "no_o_id", Type: storage.IntCol},
			},
			Key: "no_key",
		},
		{
			Name: "orders",
			Columns: []storage.Column{
				{Name: "o_key", Type: storage.IntCol},
				{Name: "o_w_id", Type: storage.IntCol},
				{Name: "o_d_id", Type: storage.IntCol},
				{Name: "o_id", Type: storage.IntCol},
				{Name: "o_c_id", Type: storage.IntCol},
				{Name: "o_carrier_id", Type: storage.IntCol},
				{Name: "o_ol_cnt", Type: storage.IntCol},
			},
			Key: "o_key",
		},
		{
			Name: "order_line",
			Columns: []storage.Column{
				{Name: "ol_key", Type: storage.IntCol},
				{Name: "ol_w_id", Type: storage.IntCol},
				{Name: "ol_d_id", Type: storage.IntCol},
				{Name: "ol_o_id", Type: storage.IntCol},
				{Name: "ol_number", Type: storage.IntCol},
				{Name: "ol_i_id", Type: storage.IntCol},
				{Name: "ol_supply_w_id", Type: storage.IntCol},
				{Name: "ol_amount", Type: storage.FloatCol},
			},
			Key: "ol_key",
		},
		{
			Name: "item",
			Columns: []storage.Column{
				{Name: "i_id", Type: storage.IntCol},
				{Name: "i_name", Type: storage.StringCol},
				{Name: "i_price", Type: storage.FloatCol},
			},
			Key: "i_id",
		},
		{
			Name: "stock",
			Columns: []storage.Column{
				{Name: "s_key", Type: storage.IntCol},
				{Name: "s_w_id", Type: storage.IntCol},
				{Name: "s_i_id", Type: storage.IntCol},
				{Name: "s_quantity", Type: storage.IntCol},
				{Name: "s_ytd", Type: storage.IntCol},
			},
			Key:     "s_key",
			Indexes: []string{"s_i_id"},
		},
	}
}

// TPCCPopulate fills db with every warehouse of cfg and the item table:
// the single-node image that cluster.Deploy splits across nodes by the
// deployed strategy. Unset sizes take the same defaults the streams
// apply, so the rows a stream addresses exist.
func TPCCPopulate(db *storage.Database, cfg TPCCConfig) {
	cfg = cfg.withDefaults()
	k := tpccKeys{cfg}
	for _, s := range TPCCSchemas() {
		schema := *s
		db.MustCreateTable(&schema)
	}
	ins := func(table string, row storage.Row) {
		if err := db.Table(table).Insert(row); err != nil {
			panic(err)
		}
	}
	for i := 0; i < cfg.Items; i++ {
		ins("item", storage.Row{
			datum.NewInt(int64(i)),
			datum.NewString(fmt.Sprintf("item-%d", i)),
			datum.NewFloat(1 + float64(i%100)),
		})
	}
	for w := 1; w <= cfg.Warehouses; w++ {
		ins("warehouse", storage.Row{
			datum.NewInt(int64(w)),
			datum.NewString(fmt.Sprintf("wh-%d", w)),
			datum.NewFloat(300000),
		})
		for i := 0; i < cfg.Items; i++ {
			ins("stock", storage.Row{
				datum.NewInt(k.stock(w, i)),
				datum.NewInt(int64(w)),
				datum.NewInt(int64(i)),
				datum.NewInt(50),
				datum.NewInt(0),
			})
		}
		for d := 1; d <= cfg.Districts; d++ {
			dk := k.district(w, d)
			ins("district", storage.Row{
				datum.NewInt(dk),
				datum.NewInt(int64(w)),
				datum.NewInt(int64(d)),
				datum.NewInt(int64(cfg.InitialOrders)),
				datum.NewFloat(30000),
			})
			for c := 1; c <= cfg.Customers; c++ {
				ins("customer", storage.Row{
					datum.NewInt(k.customer(w, d, c)),
					datum.NewInt(int64(w)),
					datum.NewInt(int64(d)),
					datum.NewInt(int64(c)),
					datum.NewFloat(-10),
					datum.NewFloat(10),
				})
			}
			for o := 0; o < cfg.InitialOrders; o++ {
				oKey := k.order(w, d, o)
				olCnt := 5 + (o % 11)
				cid := 1 + (o*7)%cfg.Customers
				carrier := int64(1 + o%10)
				isNew := o >= cfg.InitialOrders*2/3
				if isNew {
					carrier = 0
					ins("new_order", storage.Row{
						datum.NewInt(oKey),
						datum.NewInt(int64(w)),
						datum.NewInt(int64(d)),
						datum.NewInt(int64(o)),
					})
				}
				ins("orders", storage.Row{
					datum.NewInt(oKey),
					datum.NewInt(int64(w)),
					datum.NewInt(int64(d)),
					datum.NewInt(int64(o)),
					datum.NewInt(int64(cid)),
					datum.NewInt(carrier),
					datum.NewInt(int64(olCnt)),
				})
				for l := 1; l <= olCnt; l++ {
					item := (o*13 + l*101) % cfg.Items
					ins("order_line", storage.Row{
						datum.NewInt(k.orderLine(oKey, l)),
						datum.NewInt(int64(w)),
						datum.NewInt(int64(d)),
						datum.NewInt(int64(o)),
						datum.NewInt(int64(l)),
						datum.NewInt(int64(item)),
						datum.NewInt(int64(w)),
						datum.NewFloat(float64(l)),
					})
				}
			}
		}
	}
}

// TPCCManual builds the expert strategy the paper cites [21]: partition
// every table by warehouse id (contiguous ranges of warehouses per
// partition) and replicate the read-only item table everywhere.
func TPCCManual(cfg TPCCConfig, k int) partition.Strategy {
	cfg = cfg.withDefaults()
	wCols := map[string]string{
		"warehouse":  "w_id",
		"district":   "d_w_id",
		"customer":   "c_w_id",
		"history":    "h_w_id",
		"new_order":  "no_w_id",
		"orders":     "o_w_id",
		"order_line": "ol_w_id",
		"stock":      "s_w_id",
	}
	tables := make(map[string]*partition.TableRules, len(wCols)+1)
	for table, col := range wCols {
		var rules []partition.RangeRule
		for p := 0; p < k; p++ {
			lo := p*cfg.Warehouses/k + 1
			hi := (p + 1) * cfg.Warehouses / k
			r := partition.RangeRule{Parts: []int{p}}
			if p > 0 {
				r.Conds = append(r.Conds, partition.RangeCond{Column: col, Op: condGt, Value: datum.NewInt(int64(lo - 1))})
			}
			if p < k-1 {
				r.Conds = append(r.Conds, partition.RangeCond{Column: col, Op: condLe, Value: datum.NewInt(int64(hi))})
			}
			rules = append(rules, r)
		}
		tables[table] = &partition.TableRules{Rules: rules}
	}
	all := make([]int, k)
	for i := range all {
		all[i] = i
	}
	tables["item"] = &partition.TableRules{Rules: []partition.RangeRule{{Parts: all}}}
	return &partition.Lookup{K: k, Tables: tables}
}

// TPCCKeyColumns maps tables to their surrogate key columns.
func TPCCKeyColumns() map[string]string {
	return map[string]string{
		"warehouse": "w_id", "district": "d_key", "customer": "c_key",
		"history": "h_id", "new_order": "no_key", "orders": "o_key",
		"order_line": "ol_key", "item": "i_id", "stock": "s_key",
	}
}

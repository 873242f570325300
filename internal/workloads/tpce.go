package workloads

import (
	"fmt"
	"math/rand"
	"slices"

	"schism/internal/datum"
	"schism/internal/storage"
	"schism/internal/workload"
)

// TPCEConfig parameterises the TPC-E-lite generator (App. D.3). The full
// TPC-E schema has 33 tables / 188 columns; this reproduction keeps the 16
// tables that carry the workload's partitioning structure (the dropped
// ones are static dimension tables — zip codes, status types, tax rates —
// that any strategy replicates). The access-pattern shape is preserved:
// customer/account/trade activity clusters by customer, brokers span
// customers, and market data (security, last_trade) is shared, read-hot
// and occasionally batch-updated by market feeds.
type TPCEConfig struct {
	// Customers (paper: 1000).
	Customers int
	// AccountsPerCustomer (spec ~2).
	AccountsPerCustomer int
	// Securities in the market.
	Securities int
	// Brokers.
	Brokers int
	// InitialTrades per account.
	InitialTrades int
	// Txns is the trace length (paper: 100k).
	Txns int
	Seed int64
}

func (c TPCEConfig) withDefaults() TPCEConfig {
	if c.Customers <= 0 {
		c.Customers = 1000
	}
	if c.AccountsPerCustomer <= 0 {
		c.AccountsPerCustomer = 2
	}
	if c.Securities <= 0 {
		c.Securities = 500
	}
	if c.Brokers <= 0 {
		// One broker per ~50 customers; broker-centric transactions bind
		// each contiguous client block (see tpceBroker), so the block
		// count should comfortably exceed the partition counts used in
		// the evaluation.
		c.Brokers = max(1, c.Customers/50)
	}
	if c.InitialTrades <= 0 {
		c.InitialTrades = 8
	}
	if c.Txns <= 0 {
		c.Txns = 20000
	}
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// tpceKeys packs TPC-E composite keys.
type tpceKeys struct{ cfg TPCEConfig }

func (k tpceKeys) account(c, a int) int64 { return int64(c*k.cfg.AccountsPerCustomer + a) }
func (k tpceKeys) holdingSummary(acct int64, sec int) int64 {
	return acct*int64(k.cfg.Securities) + int64(sec)
}
func (k tpceKeys) watchItem(c, n int) int64 { return int64(c*100 + n) }

func tpceSchemas() []*storage.TableSchema {
	mk := func(name, key string, cols ...storage.Column) *storage.TableSchema {
		return &storage.TableSchema{Name: name, Columns: cols, Key: key}
	}
	ic := func(n string) storage.Column { return storage.Column{Name: n, Type: storage.IntCol} }
	fc := func(n string) storage.Column { return storage.Column{Name: n, Type: storage.FloatCol} }
	sc := func(n string) storage.Column { return storage.Column{Name: n, Type: storage.StringCol} }
	schemas := []*storage.TableSchema{
		mk("customer", "c_id", ic("c_id"), sc("c_name"), ic("c_tier")),
		mk("customer_account", "ca_id", ic("ca_id"), ic("ca_c_id"), ic("ca_b_id"), fc("ca_bal")),
		mk("account_permission", "ap_id", ic("ap_id"), ic("ap_ca_id")),
		mk("broker", "b_id", ic("b_id"), sc("b_name"), fc("b_comm_total"), ic("b_num_trades")),
		mk("company", "co_id", ic("co_id"), sc("co_name"), ic("co_sector")),
		mk("security", "s_id", ic("s_id"), sc("s_symb"), ic("s_co_id"), ic("s_ex_id")),
		mk("last_trade", "lt_s_id", ic("lt_s_id"), fc("lt_price"), ic("lt_vol")),
		mk("exchange", "ex_id", ic("ex_id"), sc("ex_name")),
		mk("sector", "sec_id", ic("sec_id"), sc("sec_name")),
		mk("charge", "ch_id", ic("ch_id"), fc("ch_amount")),
		mk("commission_rate", "cr_id", ic("cr_id"), fc("cr_rate")),
		mk("trade", "t_id", ic("t_id"), ic("t_ca_id"), ic("t_s_id"), ic("t_qty"), fc("t_price"), ic("t_is_sell"), ic("t_done")),
		mk("trade_history", "th_id", ic("th_id"), ic("th_t_id"), ic("th_event")),
		mk("holding_summary", "hs_id", ic("hs_id"), ic("hs_ca_id"), ic("hs_s_id"), ic("hs_qty")),
		mk("watch_list", "wl_id", ic("wl_id"), ic("wl_c_id")),
		mk("watch_item", "wi_id", ic("wi_id"), ic("wi_wl_id"), ic("wi_s_id")),
	}
	// Secondary indexes used by runtime-style lookups.
	for _, s := range schemas {
		switch s.Name {
		case "customer_account":
			s.Indexes = []string{"ca_c_id"}
		case "trade":
			s.Indexes = []string{"t_ca_id"}
		case "holding_summary":
			s.Indexes = []string{"hs_ca_id"}
		case "watch_item":
			s.Indexes = []string{"wi_wl_id"}
		}
	}
	return schemas
}

// tpceData carries generated adjacency used to build realistic traces.
type tpceData struct {
	cfg      TPCEConfig
	keys     tpceKeys
	acctSecs map[int64][]int // account -> securities held
	acctTrd  map[int64][]int64
	nextTID  int64
	nextTH   int64

	// Per-transaction scratch, reused across the trace: the statement
	// text and the accesses of the transactions whose count is
	// data-dependent.
	text txnText
	acc  []workload.Access
}

// TPCE builds the TPC-E-lite workload: 16 tables, 10 transaction types in
// roughly the spec mix. Brokers and market data cross customer clusters,
// which is why even the paper's authors could not derive a good manual
// partitioning (§6.1) — Manual is nil here too.
func TPCE(cfg TPCEConfig) *Workload {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	k := tpceKeys{cfg}
	db := storage.NewDatabase()
	for _, s := range tpceSchemas() {
		db.MustCreateTable(s)
	}
	ins := func(table string, vals ...datum.D) {
		must(db.Table(table).Insert(storage.Row(vals)))
	}
	// Reference data.
	for e := 0; e < 4; e++ {
		ins("exchange", datum.NewInt(int64(e)), datum.NewString(fmt.Sprintf("EX%d", e)))
	}
	for s := 0; s < 12; s++ {
		ins("sector", datum.NewInt(int64(s)), datum.NewString(fmt.Sprintf("sector-%d", s)))
	}
	for c := 0; c < 15; c++ {
		ins("charge", datum.NewInt(int64(c)), datum.NewFloat(1+float64(c)))
		ins("commission_rate", datum.NewInt(int64(c)), datum.NewFloat(0.01*float64(c+1)))
	}
	// Market.
	for s := 0; s < cfg.Securities; s++ {
		ins("company", datum.NewInt(int64(s)), datum.NewString(fmt.Sprintf("co-%d", s)), datum.NewInt(int64(s%12)))
		ins("security", datum.NewInt(int64(s)), datum.NewString(fmt.Sprintf("SYM%d", s)), datum.NewInt(int64(s)), datum.NewInt(int64(s%4)))
		ins("last_trade", datum.NewInt(int64(s)), datum.NewFloat(20+float64(s%80)), datum.NewInt(0))
	}
	for b := 0; b < cfg.Brokers; b++ {
		ins("broker", datum.NewInt(int64(b)), datum.NewString(fmt.Sprintf("broker-%d", b)), datum.NewFloat(0), datum.NewInt(0))
	}
	data := &tpceData{cfg: cfg, keys: k, acctSecs: map[int64][]int{}, acctTrd: map[int64][]int64{}}
	for c := 0; c < cfg.Customers; c++ {
		ins("customer", datum.NewInt(int64(c)), datum.NewString(fmt.Sprintf("cust-%d", c)), datum.NewInt(int64(1+c%3)))
		ins("watch_list", datum.NewInt(int64(c)), datum.NewInt(int64(c)))
		for n := 0; n < 5; n++ {
			ins("watch_item", datum.NewInt(k.watchItem(c, n)), datum.NewInt(int64(c)), datum.NewInt(int64(rng.Intn(cfg.Securities))))
		}
		for a := 0; a < cfg.AccountsPerCustomer; a++ {
			acct := k.account(c, a)
			broker := tpceBroker(cfg, c)
			ins("customer_account", datum.NewInt(acct), datum.NewInt(int64(c)), datum.NewInt(broker), datum.NewFloat(10000))
			ins("account_permission", datum.NewInt(acct), datum.NewInt(acct))
			for t := 0; t < cfg.InitialTrades; t++ {
				sec := rng.Intn(cfg.Securities)
				tid := data.nextTID
				data.nextTID++
				ins("trade", datum.NewInt(tid), datum.NewInt(acct), datum.NewInt(int64(sec)),
					datum.NewInt(int64(10+t)), datum.NewFloat(25), datum.NewInt(int64(t%2)), datum.NewInt(1))
				data.nextTH++
				ins("trade_history", datum.NewInt(data.nextTH), datum.NewInt(tid), datum.NewInt(1))
				data.acctTrd[acct] = append(data.acctTrd[acct], tid)
				if !containsInt(data.acctSecs[acct], sec) {
					data.acctSecs[acct] = append(data.acctSecs[acct], sec)
					ins("holding_summary", datum.NewInt(k.holdingSummary(acct, sec)), datum.NewInt(acct), datum.NewInt(int64(sec)), datum.NewInt(100))
				}
			}
		}
	}

	tr := workload.NewTrace()
	for n := 0; n < cfg.Txns; n++ {
		acc, sql := data.nextTxn(rng)
		if len(acc) > 0 {
			tr.Add(acc, sql...)
		}
	}
	keyCols := map[string]string{}
	for _, s := range tpceSchemas() {
		keyCols[s.Name] = s.Key
	}
	return &Workload{
		Name:       "TPC-E",
		DB:         db,
		Trace:      tr,
		KeyColumns: keyCols,
		Manual:     nil, // the paper could not derive one either
	}
}

// tpceBroker assigns brokers to contiguous customer blocks, as a brokerage
// assigning clients by branch would; broker-centric transactions then bind
// each block together, giving the workload the range structure the paper's
// explanation phase exploits.
func tpceBroker(cfg TPCEConfig, c int) int64 {
	per := (cfg.Customers + cfg.Brokers - 1) / cfg.Brokers
	b := c / per
	if b >= cfg.Brokers {
		b = cfg.Brokers - 1
	}
	return int64(b)
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// nextTxn draws one transaction from (approximately) the TPC-E mix.
func (d *tpceData) nextTxn(rng *rand.Rand) ([]workload.Access, []string) {
	cfg := d.cfg
	k := d.keys
	text := &d.text
	c := rng.Intn(cfg.Customers)
	acct := k.account(c, rng.Intn(cfg.AccountsPerCustomer))
	broker := tpceBroker(cfg, c)

	switch p := rng.Intn(100); {
	case p < 10: // TradeOrder: place a new trade
		sec := rng.Intn(cfg.Securities)
		tid := d.nextTID
		d.nextTID++
		d.nextTH++
		d.acctTrd[acct] = append(d.acctTrd[acct], tid)
		if len(d.acctTrd[acct]) > 20 {
			d.acctTrd[acct] = d.acctTrd[acct][1:]
		}
		hs := k.holdingSummary(acct, sec)
		// A first position in this security creates the holding row
		// instead of updating it.
		newHolding := !containsInt(d.acctSecs[acct], sec)
		if newHolding {
			d.acctSecs[acct] = append(d.acctSecs[acct], sec)
		}
		acc := []workload.Access{
			tup("customer", int64(c), false),
			tup("customer_account", acct, false),
			tup("account_permission", acct, false),
			tup("broker", broker, false),
			tup("security", int64(sec), false),
			tup("last_trade", int64(sec), false),
			tup("charge", int64(rng.Intn(15)), false),
			tup("trade", tid, true),
			tup("trade_history", d.nextTH, true),
			tup("holding_summary", hs, true),
		}
		sec64 := int64(sec)
		text.add("SELECT * FROM customer WHERE c_id = %d", int64(c))
		text.add("SELECT * FROM customer_account WHERE ca_id = %d", acct)
		text.add("SELECT * FROM security WHERE s_id = %d", sec64)
		text.add("SELECT * FROM last_trade WHERE lt_s_id = %d", sec64)
		text.add("INSERT INTO trade (t_id, t_ca_id, t_s_id, t_qty, t_price, t_is_sell, t_done) VALUES (%d, %d, %d, 10, 25.00, 0, 0)", tid, acct, sec64)
		text.add("INSERT INTO trade_history (th_id, th_t_id, th_event) VALUES (%d, %d, 0)", d.nextTH, tid)
		if newHolding {
			text.add("INSERT INTO holding_summary (hs_id, hs_ca_id, hs_s_id, hs_qty) VALUES (%d, %d, %d, 10)", hs, acct, sec64)
		} else {
			text.add("UPDATE holding_summary SET hs_qty = hs_qty + 10 WHERE hs_ca_id = %d AND hs_s_id = %d", acct, sec64)
		}
		return acc, text.take()
	case p < 20: // TradeResult: complete a pending trade
		trades := d.acctTrd[acct]
		if len(trades) == 0 {
			return nil, nil
		}
		tid := trades[rng.Intn(len(trades))]
		d.nextTH++
		sec := 0
		if secs := d.acctSecs[acct]; len(secs) > 0 {
			sec = secs[rng.Intn(len(secs))]
		}
		acc := []workload.Access{
			tup("trade", tid, true),
			tup("trade_history", d.nextTH, true),
			tup("customer_account", acct, true),
			tup("broker", broker, true),
			tup("commission_rate", int64(rng.Intn(15)), false),
			tup("holding_summary", k.holdingSummary(acct, sec), true),
			tup("last_trade", int64(sec), false),
		}
		text.add("UPDATE trade SET t_done = 1 WHERE t_id = %d", tid)
		text.add("INSERT INTO trade_history (th_id, th_t_id, th_event) VALUES (%d, %d, 1)", d.nextTH, tid)
		text.add("UPDATE customer_account SET ca_bal = ca_bal + 250.00 WHERE ca_id = %d", acct)
		text.add("UPDATE broker SET b_num_trades = b_num_trades + 1 WHERE b_id = %d", broker)
		text.add("UPDATE holding_summary SET hs_qty = hs_qty - 10 WHERE hs_ca_id = %d AND hs_s_id = %d", acct, int64(sec))
		return acc, text.take()
	case p < 28: // TradeLookup: recent trades + their histories
		trades := d.acctTrd[acct]
		if len(trades) == 0 {
			return nil, nil
		}
		n := min(4, len(trades))
		acc := make([]workload.Access, 0, 1+n)
		acc = append(acc, tup("customer_account", acct, false))
		for _, tid := range trades[len(trades)-n:] {
			acc = append(acc, tup("trade", tid, false))
		}
		text.add("SELECT * FROM trade WHERE t_ca_id = %d", acct)
		return acc, text.take()
	case p < 47: // TradeStatus: account's latest trades + security info
		trades := d.acctTrd[acct]
		n := min(5, len(trades))
		acc := make([]workload.Access, 0, 3+n+len(d.acctSecs[acct]))
		acc = append(acc,
			tup("customer", int64(c), false),
			tup("customer_account", acct, false),
			tup("broker", broker, false),
		)
		for _, tid := range trades[len(trades)-n:] {
			acc = append(acc, tup("trade", tid, false))
		}
		for _, s := range d.acctSecs[acct] {
			acc = append(acc, tup("security", int64(s), false))
		}
		text.add("SELECT * FROM customer_account WHERE ca_id = %d", acct)
		text.add("SELECT * FROM trade WHERE t_ca_id = %d", acct)
		return acc, text.take()
	case p < 60: // CustomerPosition: all accounts, holdings + market value
		acc := append(d.acc[:0], tup("customer", int64(c), false))
		for a := 0; a < cfg.AccountsPerCustomer; a++ {
			ca := k.account(c, a)
			acc = append(acc, tup("customer_account", ca, false))
			for _, s := range d.acctSecs[ca] {
				acc = append(acc,
					tup("holding_summary", k.holdingSummary(ca, s), false),
					tup("last_trade", int64(s), false))
			}
		}
		d.acc = acc
		text.add("SELECT * FROM customer WHERE c_id = %d", int64(c))
		text.add("SELECT * FROM customer_account WHERE ca_c_id = %d", int64(c))
		text.add("SELECT * FROM holding_summary WHERE hs_ca_id = %d", acct)
		return slices.Clone(acc), text.take()
	case p < 65: // BrokerVolume: broker rollup across its customers' trades
		acc := append(d.acc[:0], tup("broker", broker, false))
		for i := 0; i < 3; i++ {
			cc := (int(broker) + i*cfg.Brokers) % cfg.Customers
			ca := k.account(cc, 0)
			for _, tid := range lastN(d.acctTrd[ca], 3) {
				acc = append(acc, tup("trade", tid, false))
			}
		}
		d.acc = acc
		text.add("SELECT * FROM broker WHERE b_id = %d", broker)
		return slices.Clone(acc), text.take()
	case p < 79: // SecurityDetail
		sec := int64(rng.Intn(cfg.Securities))
		text.add("SELECT * FROM security WHERE s_id = %d", sec)
		text.add("SELECT * FROM company WHERE co_id = %d", sec)
		text.add("SELECT * FROM last_trade WHERE lt_s_id = %d", sec)
		return []workload.Access{
			tup("security", sec, false),
			tup("company", sec, false),
			tup("last_trade", sec, false),
			tup("exchange", sec%4, false),
			tup("sector", sec%12, false),
		}, text.take()
	case p < 97: // MarketWatch: price check over the customer's watch list
		acc := make([]workload.Access, 0, 11)
		acc = append(acc, tup("watch_list", int64(c), false))
		for nwi := 0; nwi < 5; nwi++ {
			wi := k.watchItem(c, nwi)
			acc = append(acc, tup("watch_item", wi, false))
			// The watched security: deterministic from population would
			// need the stored row; approximate with a pseudo-random but
			// stable pick.
			s := int64((c*31 + nwi*17) % cfg.Securities)
			acc = append(acc, tup("last_trade", s, false))
		}
		text.add("SELECT * FROM watch_item WHERE wi_wl_id = %d", int64(c))
		return acc, text.take()
	case p < 98: // MarketFeed: batch price ticks across securities
		acc := make([]workload.Access, 0, 10)
		for i := 0; i < 10; i++ {
			s := int64(rng.Intn(cfg.Securities))
			acc = append(acc, tup("last_trade", s, true))
			text.add("UPDATE last_trade SET lt_vol = lt_vol + 1 WHERE lt_s_id = %d", s)
		}
		return acc, text.take()
	default: // TradeUpdate: amend recent trades
		trades := lastN(d.acctTrd[acct], 2)
		if len(trades) == 0 {
			return nil, nil
		}
		acc := make([]workload.Access, 0, len(trades))
		for _, tid := range trades {
			acc = append(acc, tup("trade", tid, true))
			text.add("UPDATE trade SET t_price = 26.00 WHERE t_id = %d", tid)
		}
		return acc, text.take()
	}
}

func lastN(xs []int64, n int) []int64 {
	if len(xs) <= n {
		return xs
	}
	return xs[len(xs)-n:]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

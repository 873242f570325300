package driver_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/storage"
	"schism/internal/workloads"
)

// newChaosTPCCCluster is newTPCCCluster with a fault-friendly lock
// timeout: transactions stuck on locks held by a crashed holder must
// recycle quickly so the closed-loop clients keep making progress
// through the fault schedule.
func newChaosTPCCCluster(t testing.TB, cfg workloads.TPCCConfig, k int) (*cluster.Cluster, *cluster.Coordinator) {
	t.Helper()
	db := storage.NewDatabase()
	workloads.TPCCPopulate(db, cfg)
	return deploy(t, cluster.Config{Nodes: k, LockTimeout: 500 * time.Millisecond}, db, workloads.TPCCManual(cfg, k))
}

// tpccTotals aggregates the quantities the TPC-C consistency conditions
// relate, over the logical rows of a cluster.
type tpccTotals struct {
	wYtd       float64 // sum(warehouse.w_ytd)
	cBal       float64 // sum(customer.c_balance)
	dNextOID   int64   // sum(district.d_next_o_id)
	sYtd       int64   // sum(stock.s_ytd)
	orders     int64   // count(orders)
	orderLines int64   // count(order_line)
	history    int64   // count(history)
}

func readTPCCTotals(t testing.TB, c *cluster.Cluster) tpccTotals {
	t.Helper()
	snap, err := cluster.Logical(c)
	if err != nil {
		t.Fatal(err)
	}
	s := tpccTotals{
		orders:     int64(snap.Len("orders")),
		orderLines: int64(snap.Len("order_line")),
		history:    int64(snap.Len("history")),
	}
	snap.Visit("warehouse", func(_ int64, row storage.Row) { s.wYtd += row[2].F })
	snap.Visit("customer", func(_ int64, row storage.Row) { s.cBal += row[4].F })
	snap.Visit("district", func(_ int64, row storage.Row) { s.dNextOID += row[3].I })
	snap.Visit("stock", func(_ int64, row storage.Row) { s.sYtd += row[4].I })
	return s
}

// TestDriverTPCCInvariantsUnderCrashes runs the new-order/payment mix
// through the benchmark driver while nodes crash at every 2PC trigger
// point (vote not yet durable, vote durable but ack in flight, commit
// being applied) and recover via WAL replay. Afterwards the TPC-C
// consistency conditions must hold exactly — every transaction either
// applied all of its statements on all participants or none of them:
//
//   - payment moves 100.00 from c_balance to w_ytd and inserts one
//     history row, so sum(w_ytd)+sum(c_balance) is conserved and
//     delta sum(w_ytd) == 100 * delta count(history);
//   - new-order bumps d_next_o_id once per inserted orders row and
//     s_ytd once per inserted order_line row, so the counter deltas
//     must equal the row-count deltas.
//
// A half-committed transaction (one participant applied, the other
// recovered to the abort) breaks at least one of these.
func TestDriverTPCCInvariantsUnderCrashes(t *testing.T) {
	cfg := tpccTestConfig(4)
	c, co := newChaosTPCCCluster(t, cfg, 2)
	defer c.Close()

	before := readTPCCTotals(t, c)

	// One crash at each 2PC trigger point, spread across both nodes.
	// Distributed transactions (remote-customer payments, remote-supply
	// order lines) fire the prepare triggers; every transaction fires
	// BeforeCommitAck on its participants.
	plan := cluster.NewFaultPlan(co,
		cluster.Fault{Point: cluster.BeforePrepareAck, Node: 0, After: 2, RestartAfter: 20 * time.Millisecond},
		cluster.Fault{Point: cluster.AfterPrepareAck, Node: 1, After: 4, RestartAfter: 20 * time.Millisecond},
		cluster.Fault{Point: cluster.BeforeCommitAck, Node: 0, After: 60, RestartAfter: 20 * time.Millisecond},
	)

	res := driver.Run(co, driver.Config{Clients: 4, Ops: 120, Seed: 17},
		workloads.TPCCNewOrderPaymentStream(cfg))

	plan.Close()
	if errs := plan.Errs(); len(errs) != 0 {
		t.Fatalf("scheduled restart errors: %v", errs)
	}
	st := plan.Stats()
	if st.Crashes != 3 || st.Restarts != 3 {
		t.Fatalf("fault plan crashes=%d restarts=%d, want 3/3 (pending=%d)", st.Crashes, st.Restarts, plan.Pending())
	}
	for i := 0; i < c.NumNodes(); i++ {
		if !c.NodeRunning(i) {
			t.Fatalf("node %d not running after recovery", i)
		}
	}
	if err := co.Drain(); err != nil {
		t.Fatalf("Drain after recovery: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("no committed transactions under the fault schedule")
	}

	after := readTPCCTotals(t, c)

	// Payment conservation: c_balance funds w_ytd one-for-one.
	if got, want := after.wYtd+after.cBal, before.wYtd+before.cBal; math.Abs(got-want) > 1e-6 {
		t.Errorf("sum(w_ytd)+sum(c_balance) = %.2f, want %.2f (half-committed payment)", got, want)
	}
	// Each payment's +100.00 on w_ytd comes with exactly one history row.
	if got, want := after.wYtd-before.wYtd, 100*float64(after.history-before.history); math.Abs(got-want) > 1e-6 {
		t.Errorf("delta w_ytd = %.2f but history rows account for %.2f", got, want)
	}
	// Each new-order increments d_next_o_id once per orders row...
	if got, want := after.dNextOID-before.dNextOID, after.orders-before.orders; got != want {
		t.Errorf("delta sum(d_next_o_id) = %d but %d orders rows inserted", got, want)
	}
	// ...and s_ytd once per order_line row.
	if got, want := after.sYtd-before.sYtd, after.orderLines-before.orderLines; got != want {
		t.Errorf("delta sum(s_ytd) = %d but %d order_line rows inserted", got, want)
	}

	// The recovered cluster still commits: write a warehouse on each
	// node (warehouses are split contiguously, so w=1 and w=Warehouses
	// land on different nodes) in one distributed transaction.
	if _, _, err := co.RunTxn(func(tx *cluster.Txn) error {
		for _, w := range []int{1, cfg.Warehouses} {
			if _, err := tx.Exec(fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + 0 WHERE w_id = %d", w)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("distributed write after recovery: %v", err)
	}
}

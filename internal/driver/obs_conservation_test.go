package driver_test

import (
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/obs"
	"schism/internal/partition"
)

// TestObsCountersMatchDriverResult is the metric-conservation gate: the
// observability layer's transaction counters must agree EXACTLY with the
// driver's independently-tallied Result — and with the money-conservation
// ground truth — under a seeded chaos schedule that crashes and recovers
// a node at 2PC trigger points mid-run. The driver runs in Ops mode (no
// warmup), so every transaction the coordinator sees is a transaction the
// driver measured; any drift between the two tallies is a double- or
// un-counted commit path.
func TestObsCountersMatchDriverResult(t *testing.T) {
	const nodes, total = 2, 24
	reg := obs.NewRegistry()
	reg.Tracer().SetSample(16)
	c, co := deploy(t, cluster.Config{
		Nodes:       nodes,
		LockTimeout: 500 * time.Millisecond,
		Obs:         reg,
	}, accountDB(t, total), &partition.Hash{K: nodes, KeyColumn: map[string]string{"account": "id"}})
	defer c.Close()

	plan := cluster.NewFaultPlan(co,
		cluster.Fault{Point: cluster.BeforePrepareAck, Node: 1, After: 4, RestartAfter: 20 * time.Millisecond},
		cluster.Fault{Point: cluster.BeforeCommitAck, Node: 0, After: 50, RestartAfter: 20 * time.Millisecond},
	)
	res := driver.Run(co, driver.Config{Clients: 4, Ops: 60, Seed: 23}, transferStream(total))
	plan.Close()
	if errs := plan.Errs(); len(errs) != 0 {
		t.Fatalf("scheduled restart errors: %v", errs)
	}
	if err := co.Drain(); err != nil {
		t.Fatalf("Drain after recovery: %v", err)
	}
	if res.Committed == 0 {
		t.Fatal("no transfers committed under the fault schedule")
	}

	snap := reg.Snapshot()
	if got := snap.Counters["txn.committed"]; got != res.Committed {
		t.Errorf("obs txn.committed = %d, driver counted %d", got, res.Committed)
	}
	if got := snap.Counters["txn.distributed"]; got != res.Distributed {
		t.Errorf("obs txn.distributed = %d, driver counted %d", got, res.Distributed)
	}
	if got := snap.Counters["txn.failed"]; got != res.Failed {
		t.Errorf("obs txn.failed = %d, driver counted %d", got, res.Failed)
	}
	var retries int64
	for _, cause := range cluster.RetryCauses {
		retries += snap.Counters["txn.retry."+cause]
	}
	if retries != res.Aborts {
		t.Errorf("obs retry counters sum to %d, driver counted %d aborts (%v)",
			retries, res.Aborts, kvSubset(snap.Counters, "txn.retry."))
	}
	if one, two := snap.Counters["txn.commit.one_phase"], snap.Counters["txn.commit.two_phase"]; one+two != res.Committed {
		t.Errorf("one-phase %d + two-phase %d commits != %d committed", one, two, res.Committed)
	}

	// Ground truth: the counters agree with each other AND with the data.
	if sum := bankTotal(t, c); sum != total*1000 {
		t.Fatalf("money not conserved under chaos: %d, want %d", sum, total*1000)
	}

	// The chaos schedule must itself be visible on the timeline.
	kinds := map[string]int{}
	for _, ev := range snap.Events {
		kinds[ev.Kind]++
	}
	if kinds["crash"] == 0 || kinds["restart"] == 0 || kinds["chaos"] == 0 {
		t.Errorf("timeline missing fault events: %v", kinds)
	}
}

// kvSubset filters a counter map to keys with the given prefix (for
// failure messages).
func kvSubset(m map[string]int64, prefix string) map[string]int64 {
	out := map[string]int64{}
	for k, v := range m {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out[k] = v
		}
	}
	return out
}

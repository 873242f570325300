package cluster

import (
	"testing"
	"time"
)

// BenchmarkRecoveryReplay measures a crash/restart cycle against a WAL
// filled by committed distributed transfers: the replay-ms metric is
// the WAL scan plus loser undo plus in-doubt resolution per restart,
// records the log size the scan covered.
func BenchmarkRecoveryReplay(b *testing.B) {
	c, co, strat := newChaosCluster(b, 2, 64, 0)
	defer c.Close()
	var onA, onB []int64
	for k := int64(0); k < 128; k++ {
		if strat.Locate(tid(k), nil)[0] == 0 {
			onA = append(onA, k)
		} else {
			onB = append(onB, k)
		}
	}
	const fill = 256
	for i := 0; i < fill; i++ {
		if _, _, err := co.RunTxn(func(tx *Txn) error {
			return transfer(tx, onA[i%len(onA)], onB[i%len(onB)], 1)
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var spent time.Duration
	var records int
	for i := 0; i < b.N; i++ {
		c.Crash(1)
		rs, err := co.RestartNode(1)
		if err != nil {
			b.Fatal(err)
		}
		spent += rs.Replay + rs.Resolve
		records = rs.Records
	}
	b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N)/1e6, "replay-ms")
	b.ReportMetric(float64(records), "records")
}

// BenchmarkChaosConvergence runs a fixed transfer workload with a
// mid-run crash at a commit trigger (auto-restarted with WAL replay)
// and reports the retry cost of the fault (aborts) plus how long after
// the schedule finishes the cluster takes to commit a distributed
// probe and drain clean (converge-ms).
func BenchmarkChaosConvergence(b *testing.B) {
	var aborts int64
	var converge time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c, co, strat := newChaosCluster(b, 2, 16, 0)
		var onA, onB []int64
		for k := int64(0); k < 32; k++ {
			if strat.Locate(tid(k), nil)[0] == 0 {
				onA = append(onA, k)
			} else {
				onB = append(onB, k)
			}
		}
		plan := NewFaultPlan(co,
			Fault{Point: BeforePrepareAck, Node: 1, After: 4, RestartAfter: 2 * time.Millisecond},
			Fault{Point: BeforeCommitAck, Node: 1, After: 20, RestartAfter: 2 * time.Millisecond},
		)
		b.StartTimer()
		for j := 0; j < 64; j++ {
			_, ab, err := co.RunTxn(func(tx *Txn) error {
				return transfer(tx, onA[j%len(onA)], onB[j%len(onB)], 1)
			})
			aborts += int64(ab)
			if err != nil {
				b.Fatal(err)
			}
		}
		plan.Close()
		t0 := time.Now()
		if _, _, err := co.RunTxn(func(tx *Txn) error {
			return transfer(tx, onA[0], onB[0], 1)
		}); err != nil {
			b.Fatal(err)
		}
		if err := co.Drain(); err != nil {
			b.Fatal(err)
		}
		converge += time.Since(t0)
		b.StopTimer()
		if st := plan.Stats(); st.Crashes != 2 || st.Restarts != 2 {
			b.Fatalf("fault plan crashes=%d restarts=%d, want 2/2", st.Crashes, st.Restarts)
		}
		if sum := bankTotal(b, c); sum != 32*1000 {
			b.Fatalf("money not conserved: %d", sum)
		}
		c.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(aborts)/float64(b.N), "aborts")
	b.ReportMetric(float64(converge.Nanoseconds())/float64(b.N)/1e6, "converge-ms")
}

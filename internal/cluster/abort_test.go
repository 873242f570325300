package cluster

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"schism/internal/workload"
)

// findKeys picks the first `per` account keys homed on each node.
func findKeys(t *testing.T, locate func(int64) int, n, per int) [][]int64 {
	t.Helper()
	out := make([][]int64, n)
	for k := int64(0); k < 10000; k++ {
		h := locate(k)
		if h < n && len(out[h]) < per {
			out[h] = append(out[h], k)
		}
		done := true
		for _, s := range out {
			if len(s) < per {
				done = false
			}
		}
		if done {
			return out
		}
	}
	t.Fatal("could not find keys on every node")
	return nil
}

// TestStmtClassification pins the per-statement distributed-vs-local
// classification against the ground-truth matched keys the capture hook
// reports: a statement counts exactly once however many keys it matches —
// distributed when its matched keys (equivalently its routed target set)
// span more than one node, local otherwise.
func TestStmtClassification(t *testing.T) {
	c, co, strat := newAccountCluster(t, 2, 20)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byNode := findKeys(t, locate, 2, 2)
	a, a2 := byNode[0][0], byNode[0][1] // two keys on node 0
	b := byNode[1][0]                   // one key on node 1

	var mu sync.Mutex
	var captured []workload.Access
	co.SetCapture(func(accs []workload.Access) {
		mu.Lock()
		captured = append(captured[:0], accs...)
		mu.Unlock()
	})
	defer co.SetCapture(nil)

	cases := []struct {
		name       string
		sql        string
		wantLocal  int
		wantDist   int
		wantKeys   int // ground-truth matched keys captured
		wantWrites bool
	}{
		{
			name:      "single-key update",
			sql:       fmt.Sprintf("UPDATE account SET bal = bal + 1 WHERE id = %d", a),
			wantLocal: 1, wantDist: 0, wantKeys: 1, wantWrites: true,
		},
		{
			name: "multi-key same node",
			sql:  fmt.Sprintf("UPDATE account SET bal = bal + 1 WHERE id IN (%d, %d)", a, a2),
			// Two matched keys, ONE statement, one node: one local
			// statement — multi-key must not double-count.
			wantLocal: 1, wantDist: 0, wantKeys: 2, wantWrites: true,
		},
		{
			name: "multi-key cross node",
			sql:  fmt.Sprintf("UPDATE account SET bal = bal + 1 WHERE id IN (%d, %d)", a, b),
			// Two matched keys on two nodes: ONE distributed statement.
			wantLocal: 0, wantDist: 1, wantKeys: 2, wantWrites: true,
		},
		{
			name: "broadcast read",
			sql:  "SELECT * FROM account WHERE bal >= 0",
			// Unroutable: fans to every node; one distributed statement,
			// every row is a ground-truth read.
			wantLocal: 0, wantDist: 1, wantKeys: 40,
		},
	}
	for _, tc := range cases {
		res, err := co.RunTxnStats(func(tx *Txn) error {
			_, err := tx.Exec(tc.sql)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.StmtLocal != tc.wantLocal || res.StmtDistributed != tc.wantDist {
			t.Errorf("%s: classified local=%d dist=%d, want local=%d dist=%d",
				tc.name, res.StmtLocal, res.StmtDistributed, tc.wantLocal, tc.wantDist)
		}
		mu.Lock()
		keys := len(captured)
		writes := false
		nodes := map[int]bool{}
		for _, acc := range captured {
			writes = writes || acc.Write
			nodes[locate(acc.Tuple.Key)] = true
		}
		mu.Unlock()
		if keys != tc.wantKeys {
			t.Errorf("%s: captured %d ground-truth keys, want %d", tc.name, keys, tc.wantKeys)
		}
		if writes != tc.wantWrites {
			t.Errorf("%s: captured writes=%v, want %v", tc.name, writes, tc.wantWrites)
		}
		// Cross-check: for key-routed statements the classification must
		// agree with the nodes the matched keys actually live on.
		if tc.name != "broadcast read" {
			wantDistByKeys := len(nodes) > 1
			if (res.StmtDistributed == 1) != wantDistByKeys {
				t.Errorf("%s: classification disagrees with matched-key homes %v", tc.name, nodes)
			}
		}
	}
}

// TestPrepareVoteNoAborts2PC exercises the 2PC abort branch directly: a
// participant that is doomed at prepare time votes no, the coordinator
// fans out aborts, and every participant's writes roll back.
func TestPrepareVoteNoAborts2PC(t *testing.T) {
	c, co, strat := newAccountCluster(t, 2, 10)
	defer c.Close()
	locate := func(k int64) int { return strat.Locate(tid(k), nil)[0] }
	byNode := findKeys(t, locate, 2, 1)
	onA, onB := byNode[0][0], byNode[1][0]

	tx := co.Begin()
	if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = 1 WHERE id = %d", onA)); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = 2 WHERE id = %d", onB)); err != nil {
		t.Fatal(err)
	}
	// Doom the participant state on node 1 (as a failed statement whose
	// error was lost would): prepare must vote no.
	c.Node(locate(onB)).state(tx.ts).doomed = true
	err := tx.Commit()
	if err == nil || !strings.Contains(err.Error(), "voted no") {
		t.Fatalf("commit error = %v, want participant vote-no", err)
	}
	// Both participants rolled back.
	check := co.Begin()
	defer check.Abort()
	for _, key := range []int64{onA, onB} {
		rows, err := check.Exec(fmt.Sprintf("SELECT * FROM account WHERE id = %d", key))
		if err != nil || len(rows) != 1 || rows[0][1].I != 1000 {
			t.Fatalf("key %d not rolled back after vote-no: %v %v", key, rows, err)
		}
	}
}

// TestRetryOnAbortEventuallyWins pins the wait-die retry loop: a younger
// transaction conflicting with an older lock holder dies, retries with
// its original (aging) timestamp, and commits once the holder releases;
// TxnResult reports the aborts.
func TestRetryOnAbortEventuallyWins(t *testing.T) {
	c, co, _ := newAccountCluster(t, 1, 4)
	defer c.Close()

	older := co.Begin() // lower timestamp: wins conflicts
	if _, err := older.Exec("UPDATE account SET bal = bal - 1 WHERE id = 0"); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res TxnResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := co.RunTxnStats(func(tx *Txn) error {
			_, err := tx.Exec("UPDATE account SET bal = bal + 1 WHERE id = 0")
			return err
		})
		done <- outcome{res, err}
	}()
	// Hold the lock long enough that the younger transaction must die at
	// least once, then release it.
	time.Sleep(20 * time.Millisecond)
	if err := older.Commit(); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("younger txn never committed: %v", out.err)
	}
	if out.res.Aborts == 0 {
		t.Error("younger txn reported zero aborts despite the conflict")
	}
	// Both updates applied.
	check := co.Begin()
	defer check.Abort()
	rows, _ := check.Exec("SELECT * FROM account WHERE id = 0")
	if len(rows) != 1 || rows[0][1].I != 1000 {
		t.Fatalf("final balance %v, want 1000 (-1 then +1)", rows)
	}
}

// TestDrainDuringTraffic exercises the epoch barrier while closed-loop
// transfer traffic runs: Drain must return promptly (it only waits for
// transactions active at call time) and must not disturb the money
// invariant.
func TestDrainDuringTraffic(t *testing.T) {
	c, co, _ := newAccountCluster(t, 2, 10)
	defer c.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				from, to := rng.Int63n(20), rng.Int63n(20)
				if from == to {
					continue
				}
				_, _, err := co.RunTxn(func(tx *Txn) error {
					if _, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal - 3 WHERE id = %d", from)); err != nil {
						return err
					}
					_, err := tx.Exec(fmt.Sprintf("UPDATE account SET bal = bal + 3 WHERE id = %d", to))
					return err
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(int64(w))
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := co.Drain(); err != nil {
			t.Fatalf("Drain with all nodes up: %v", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("Drain took %v with traffic running", d)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if total := bankTotal(t, c); total != 20*1000 {
		t.Fatalf("money not conserved across Drain: %d", total)
	}
}

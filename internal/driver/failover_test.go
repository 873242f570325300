package driver_test

import (
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/driver"
	"schism/internal/partition"
)

// newReplicatedBankCluster builds `groups` consensus groups of `r`
// replicas, each member seeded with an identical copy of its group's
// account shard, with consensus knobs shrunk so a failover completes in
// tens of milliseconds.
func newReplicatedBankCluster(t testing.TB, groups, r, keysPerGroup int) (*cluster.Cluster, *cluster.Coordinator) {
	t.Helper()
	return deploy(t, cluster.Config{
		Nodes:             groups * r,
		ReplicationFactor: r,
		LockTimeout:       500 * time.Millisecond,
		RPCTimeout:        20 * time.Millisecond,
		ReplHeartbeat:     2 * time.Millisecond,
		ReplElection:      25 * time.Millisecond,
		ReplSeed:          11,
	}, accountDB(t, groups*keysPerGroup), &partition.Hash{K: groups, KeyColumn: map[string]string{"account": "id"}})
}

// TestDriverFailoverAvailability is the headline availability claim:
// with R=3 replication, killing the leader of EVERY group mid-run never
// takes committed throughput to zero for a full second. The driver's
// 100ms commit buckets measure it directly, and conservation plus
// replica convergence prove the failovers lost nothing.
func TestDriverFailoverAvailability(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const groups, r, keysPerGroup = 2, 3, 8
	c, co := newReplicatedBankCluster(t, groups, r, keysPerGroup)
	defer c.Close()
	before := bankTotal(t, c)

	// One leader assassination per group, spread through the run, each
	// victim restarted (and catching up as a follower) shortly after.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for g := 0; g < groups; g++ {
			time.Sleep(800 * time.Millisecond)
			l := c.LeaderOf(g)
			if l < 0 {
				continue
			}
			c.Crash(l)
			time.Sleep(300 * time.Millisecond)
			if _, err := co.RestartNode(l); err != nil {
				t.Errorf("restart node %d: %v", l, err)
			}
		}
	}()

	res := driver.Run(co, driver.Config{
		Clients:     4,
		Measure:     3 * time.Second,
		Seed:        23,
		BucketWidth: 100 * time.Millisecond,
	}, transferStream(groups*keysPerGroup))
	<-done

	if res.Committed == 0 {
		t.Fatal("no committed transactions across the failovers")
	}
	min, windows := res.MinWindow(time.Second)
	if windows < 2 {
		t.Fatalf("only %d full 1s windows measured (buckets=%d)", windows, len(res.Buckets))
	}
	if min <= 0 {
		t.Fatalf("a full 1s window committed nothing across a failover: min=%d buckets=%v",
			min, res.Buckets)
	}

	if err := co.Drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if after := bankTotal(t, c); after != before {
		t.Fatalf("money not conserved across failovers: %d -> %d", before, after)
	}
}

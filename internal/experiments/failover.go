package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/driver"
	"schism/internal/obs"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
)

// The failover experiment measures what replication buys and what it
// costs. For each replication factor it runs the same transfer workload
// twice on a group-replicated cluster: once fault-free (the replication
// overhead: quorum appends on every commit) and once with the leader of
// group 0 killed mid-run (the availability story: how long until a new
// leader serves, how deep the throughput dip, how fast it refills). The
// driver's fixed-width commit buckets resolve the dip directly.

// The experiment's fixed parameters.
const (
	failoverGroups       = 2  // consensus groups
	failoverKeysPerGroup = 16 // accounts in each group's shard
	failoverClients      = 4  // closed-loop driver clients
	// failoverBucketWidth is the availability-bucket resolution.
	failoverBucketWidth = 50 * time.Millisecond
	// failoverElection is the consensus election timeout: the
	// failover-detection lag a dead leader costs.
	failoverElection = 25 * time.Millisecond
)

// failoverRs lists the replication factors compared.
var failoverRs = []int{1, 3}

// FailoverRow is one replication factor's measurements.
type FailoverRow struct {
	R int
	// BaseTPS is fault-free throughput (replication overhead appears as
	// the drop from the R=1 row).
	BaseTPS float64
	// TPS is throughput of the run that kills group 0's leader.
	TPS float64
	// Failover is crash-to-new-leader time (R=1: crash-to-restart, since
	// the lone replica IS the partition).
	Failover time.Duration
	// BaselineBucket is the median pre-crash commit bucket; DipBucket the
	// smallest bucket after the crash. DipBucket 0 means the cluster was
	// fully unavailable for at least one bucket.
	BaselineBucket, DipBucket int64
	// Recover is crash to the first bucket back at >= half the baseline.
	Recover time.Duration
	// The failover window's breakdown, resolved from the crash run's
	// observability timeline (R>1 only; zero at R=1, which has no
	// election): Detect is crash → election start (the heartbeat-silence
	// detection lag), Elect is election start → won, Barrier is won →
	// leader-ready (the no-op barrier entry committing), FirstCommit is
	// leader-ready → the crashed group's first committed transaction.
	Detect, Elect, Barrier, FirstCommit time.Duration
	// Metrics is the crash run's snapshot: per-phase 2PC latency
	// histograms (2pc.route/prepare/commit), quorum append and apply
	// waits, WAL force latency, retry counters, and the event timeline.
	Metrics *obs.Snapshot
}

// Failover runs the experiment for each replication factor. Each run
// measures for a Scale-dependent window; the crash fires a third of the
// way in.
func Failover(s Scale) ([]FailoverRow, error) {
	measure := time.Duration(s.scaled(3000, 1500)) * time.Millisecond
	rows := make([]FailoverRow, 0, len(failoverRs))
	for _, r := range failoverRs {
		row, err := failoverRun(measure, r)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func failoverCluster(r int, reg *obs.Registry) (*cluster.Cluster, *cluster.Coordinator, error) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable(&storage.TableSchema{
		Name: "account",
		Columns: []storage.Column{
			{Name: "id", Type: storage.IntCol},
			{Name: "bal", Type: storage.IntCol},
		},
		Key: "id",
	})
	for id := int64(0); id < failoverGroups*failoverKeysPerGroup; id++ {
		if err := tbl.Insert(storage.Row{datum.NewInt(id), datum.NewInt(1000)}); err != nil {
			return nil, nil, err
		}
	}
	return cluster.Deploy(cluster.Config{
		Nodes:             failoverGroups * r,
		ReplicationFactor: r,
		LockTimeout:       500 * time.Millisecond,
		RPCTimeout:        20 * time.Millisecond,
		ReplHeartbeat:     2 * time.Millisecond,
		ReplElection:      failoverElection,
		ReplSeed:          19,
		Obs:               reg,
	}, db, &partition.Hash{K: failoverGroups, KeyColumn: map[string]string{"account": "id"}})
}

// The transfer's two statements, prepared once.
var (
	debitAccount  = sqlparse.MustPrepare("UPDATE account SET bal = bal - 1 WHERE id = ?")
	creditAccount = sqlparse.MustPrepare("UPDATE account SET bal = bal + 1 WHERE id = ?")
)

// failoverStream is the transfer mix: single-unit moves between random
// accounts, a blend of single-group and cross-group 2PC transactions.
func failoverStream(total int) driver.StreamMaker {
	return func(client int, seed int64) driver.Stream {
		rng := rand.New(rand.NewSource(seed + 31*int64(client)))
		return driver.StreamFunc(func() driver.Op {
			from := rng.Intn(total)
			to := rng.Intn(total - 1)
			if to >= from {
				to++
			}
			return driver.Op{
				Sig: fmt.Sprintf("tr %d %d", from, to),
				Run: func(t *cluster.Txn) error {
					if _, err := t.ExecPrepared(debitAccount, datum.NewInt(int64(from))); err != nil {
						return err
					}
					_, err := t.ExecPrepared(creditAccount, datum.NewInt(int64(to)))
					return err
				},
			}
		})
	}
}

func failoverRun(measure time.Duration, r int) (FailoverRow, error) {
	row := FailoverRow{R: r}
	total := failoverGroups * failoverKeysPerGroup
	dcfg := driver.Config{
		Clients:     failoverClients,
		Measure:     measure,
		Seed:        29,
		BucketWidth: failoverBucketWidth,
	}

	// Fault-free pass: the steady-state cost of quorum replication.
	c, co, err := failoverCluster(r, nil)
	if err != nil {
		return row, err
	}
	base := driver.Run(co, dcfg, failoverStream(total))
	c.Close()
	row.BaseTPS = base.Throughput()

	// Crash pass: kill group 0's leader a third of the way in, with the
	// observability registry attached — the event timeline resolves the
	// failover into its phases.
	reg := obs.NewRegistry()
	c, co, err = failoverCluster(r, reg)
	if err != nil {
		return row, err
	}
	defer c.Close()
	crashDelay := measure / 3
	restartAfter := measure / 6
	var crashedAt, ledAt time.Time
	done := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		time.Sleep(crashDelay)
		victim := c.LeaderOf(0)
		if r == 1 {
			victim = 0 // the lone member IS the partition
		}
		if victim < 0 {
			return
		}
		reg.ArmFirstCommit(0) // watch for group 0's first post-crash commit
		crashedAt = time.Now()
		c.Crash(victim)
		if r > 1 {
			// Time to a NEW leader actually serving.
			for {
				if l := c.LeaderOf(0); l >= 0 && l != victim {
					ledAt = time.Now()
					break
				}
				if time.Since(crashedAt) > 5*time.Second {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		time.Sleep(restartAfter)
		if _, err := co.RestartNode(victim); err == nil && r == 1 {
			ledAt = time.Now() // availability returns with the restart
		}
	}()
	res := driver.Run(co, dcfg, failoverStream(total))
	<-done
	row.TPS = res.Throughput()
	if crashedAt.IsZero() || ledAt.IsZero() {
		return row, fmt.Errorf("failover: crash choreography failed at R=%d", r)
	}
	row.Failover = ledAt.Sub(crashedAt)
	row.Metrics = reg.Snapshot()
	if r > 1 {
		row.Detect, row.Elect, row.Barrier, row.FirstCommit =
			failoverBreakdown(row.Metrics.Events, 0)
	}

	// Bucket analysis around the crash. The driver's epoch is the run
	// start (no warmup), so the crash lands in bucket crashIdx.
	crashIdx := int(crashedAt.Sub(start) / failoverBucketWidth)
	b := res.Buckets
	if crashIdx < 1 || crashIdx >= len(b) {
		return row, fmt.Errorf("failover: crash bucket %d outside run (%d buckets)", crashIdx, len(b))
	}
	pre := append([]int64(nil), b[:crashIdx]...)
	sort.Slice(pre, func(i, j int) bool { return pre[i] < pre[j] })
	row.BaselineBucket = pre[len(pre)/2]
	row.DipBucket = b[crashIdx]
	row.Recover = time.Duration(len(b)-crashIdx) * failoverBucketWidth // pessimistic default
	for i := crashIdx; i < len(b); i++ {
		if b[i] < row.DipBucket {
			row.DipBucket = b[i]
		}
		if b[i] >= (row.BaselineBucket+1)/2 {
			row.Recover = time.Duration(i-crashIdx) * failoverBucketWidth
			break
		}
	}
	return row, nil
}

// failoverBreakdown resolves the observability timeline into the
// failover window's phases for the crashed group: crash → election
// start (detection), → election won, → leader-ready (the no-op barrier
// entry committing), → the group's first committed transaction. Zero
// values mean the corresponding event never appeared (e.g. the watch
// stayed armed past the run's end).
func failoverBreakdown(events []obs.Event, group int) (detect, elect, barrier, first time.Duration) {
	var crash, start, won, ready time.Time
	for _, ev := range events {
		switch {
		case crash.IsZero():
			if ev.Kind == "crash" && ev.Group == group {
				crash = ev.At
			}
		case start.IsZero():
			if ev.Kind == "election-start" && ev.Group == group {
				start = ev.At
				detect = start.Sub(crash)
			}
		case won.IsZero():
			if ev.Kind == "election-won" && ev.Group == group {
				won = ev.At
				elect = won.Sub(start)
			}
		case ready.IsZero():
			if ev.Kind == "leader-ready" && ev.Group == group {
				ready = ev.At
				barrier = ready.Sub(won)
			}
		default:
			if ev.Kind == "first-commit" && ev.Group == group {
				first = ev.At.Sub(ready)
				if first < 0 {
					first = 0
				}
				return
			}
		}
	}
	return
}

// PrintFailover renders the experiment table: the availability numbers
// per replication factor, each crash run's failover-window breakdown,
// and the R>1 crash run's phase-latency metrics.
func PrintFailover(w io.Writer, rows []FailoverRow) {
	fmt.Fprintln(w, "Failover: availability through a leader crash vs replication factor")
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%d", r.R),
			fmt.Sprintf("%.0f", r.BaseTPS),
			fmt.Sprintf("%.0f", r.TPS),
			r.Failover.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", r.BaselineBucket),
			fmt.Sprintf("%d", r.DipBucket),
			r.Recover.Round(time.Millisecond).String(),
		})
	}
	table(w, []string{"R", "fault-free tps", "crash-run tps", "failover", "baseline/bucket", "dip/bucket", "recover"}, out)
	for _, r := range rows {
		if r.R <= 1 {
			continue
		}
		fmt.Fprintf(w, "\nR=%d failover timeline: detect %v -> elect %v -> barrier %v -> first-commit %v\n",
			r.R, r.Detect.Round(10*time.Microsecond), r.Elect.Round(10*time.Microsecond),
			r.Barrier.Round(10*time.Microsecond), r.FirstCommit.Round(10*time.Microsecond))
		printMetrics(w, fmt.Sprintf("R=%d crash run", r.R), r.Metrics)
	}
}

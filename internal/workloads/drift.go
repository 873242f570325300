package workloads

import (
	"fmt"
	"math/rand"

	"schism/internal/cluster"
	"schism/internal/partition"
	"schism/internal/workload"
	"schism/internal/zipf"
)

// YCSBGroupsConfig parameterises the drifting YCSB variant used by the
// online-repartitioning experiments: transactions touch small key groups
// (so partitioning quality matters, unlike single-tuple YCSB-A), and the
// group structure changes between phases — the hotspot shift the live
// loop must detect and adapt to.
type YCSBGroupsConfig struct {
	// Rows is the usertable size (default 4000).
	Rows int
	// GroupSize is the number of keys per co-accessed group (default 4,
	// minimum 3: each transaction needs two read keys and a distinct
	// written key). Rows must be a multiple of GroupSize times GroupSize
	// for the phases to mix cleanly; it is rounded down if not.
	GroupSize int
	// Txns is the trace length (default 4000).
	Txns int
	// Phase selects the group structure: phase 0 groups are contiguous
	// key runs, phase 1 groups are strided (each taking one key from
	// GroupSize different phase-0 regions), so a placement tuned to one
	// phase cuts nearly every transaction of the other.
	Phase int
	// Theta is the Zipf skew over groups (default 0.6: a warm but not
	// degenerate hotspot).
	Theta float64
	Seed  int64
}

func (c YCSBGroupsConfig) withDefaults() YCSBGroupsConfig {
	if c.GroupSize <= 0 {
		c.GroupSize = 4
	}
	if c.GroupSize < 3 {
		c.GroupSize = 3
	}
	if c.Rows <= 0 {
		c.Rows = 4000
	}
	c.Rows -= c.Rows % (c.GroupSize * c.GroupSize)
	if c.Txns <= 0 {
		c.Txns = 4000
	}
	if c.Theta <= 0 {
		c.Theta = 0.6
	}
	return c
}

// groupKeys returns the keys of group g under the config's phase.
func (c YCSBGroupsConfig) groupKeys(g int) []int64 {
	keys := make([]int64, c.GroupSize)
	if c.Phase%2 == 0 {
		for j := range keys {
			keys[j] = int64(g*c.GroupSize + j)
		}
		return keys
	}
	stride := c.Rows / c.GroupSize // = number of groups
	for j := range keys {
		keys[j] = int64(g + j*stride)
	}
	return keys
}

// numGroups returns the group count (identical across phases).
func (c YCSBGroupsConfig) numGroups() int { return c.Rows / c.GroupSize }

// YCSBGroups builds the drifting-workload bundle for one phase. Each
// transaction reads two keys of a Zipf-chosen group and updates a third,
// so any placement splitting a group distributes the transaction.
func YCSBGroups(cfg YCSBGroupsConfig) *Workload {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	gen := zipf.NewScrambled(rng, uint64(cfg.numGroups()), cfg.Theta)
	tr := workload.NewTrace()
	for i := 0; i < cfg.Txns; i++ {
		acc, sql := ycsbGroupTxn(cfg, int(gen.Next()), rng)
		tr.Add(acc, sql...)
	}
	return &Workload{
		Name:       fmt.Sprintf("YCSB-GROUPS-P%d", cfg.Phase%2),
		DB:         ycsbDB(YCSBConfig{Rows: cfg.Rows}.withDefaults()),
		Trace:      tr,
		KeyColumns: map[string]string{"usertable": "ycsb_key"},
		Manual: func(k int) partition.Strategy {
			return &partition.Hash{K: k, KeyColumn: map[string]string{"usertable": "ycsb_key"}}
		},
	}
}

// ycsbGroupTxn draws one transaction over group g: two reads and one
// update on distinct group members.
func ycsbGroupTxn(cfg YCSBGroupsConfig, g int, rng *rand.Rand) ([]workload.Access, []string) {
	r1, r2, w := cfg.drawMembers(g, rng)
	acc := []workload.Access{
		{Tuple: workload.TupleID{Table: "usertable", Key: r1}},
		{Tuple: workload.TupleID{Table: "usertable", Key: r2}},
		{Tuple: workload.TupleID{Table: "usertable", Key: w}, Write: true},
	}
	sql := []string{
		fmt.Sprintf("SELECT * FROM usertable WHERE ycsb_key = %d", r1),
		fmt.Sprintf("SELECT * FROM usertable WHERE ycsb_key = %d", r2),
		fmt.Sprintf("UPDATE usertable SET field0 = 'u' WHERE ycsb_key = %d", w),
	}
	return acc, sql
}

// drawMembers picks the two read keys and the written key of one
// transaction over group g.
func (c YCSBGroupsConfig) drawMembers(g int, rng *rand.Rand) (r1, r2, w int64) {
	keys := c.groupKeys(g)
	perm := rng.Perm(len(keys)) // GroupSize >= 3, so three distinct members exist
	return keys[perm[0]], keys[perm[1]], keys[perm[2]]
}

// runYCSBGroup issues one group transaction: two reads and one update.
func runYCSBGroup(t *cluster.Txn, r1, r2, w int64) error {
	if _, err := t.ExecPrepared(selUser, num(r1)); err != nil {
		return err
	}
	if _, err := t.ExecPrepared(selUser, num(r2)); err != nil {
		return err
	}
	_, err := t.ExecPrepared(updUser, num(w))
	return err
}

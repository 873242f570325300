package live

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/lookup"
	"schism/internal/sqlparse"
	"schism/internal/storage"
)

// SyncTable is a concurrency-safe lookup.Table: the router reads it on
// every statement while the migration executor flips entries as batches
// commit.
type SyncTable struct {
	mu sync.RWMutex
	t  lookup.Table
}

// NewSyncTable wraps a lookup table for concurrent use.
func NewSyncTable(t lookup.Table) *SyncTable { return &SyncTable{t: t} }

// Set implements lookup.Table.
func (s *SyncTable) Set(key int64, parts []int) {
	s.mu.Lock()
	s.t.Set(key, parts)
	s.mu.Unlock()
}

// Locate implements lookup.Table.
func (s *SyncTable) Locate(key int64) ([]int, bool) {
	s.mu.RLock()
	parts, ok := s.t.Locate(key)
	s.mu.RUnlock()
	return parts, ok
}

// MemoryBytes implements lookup.Table.
func (s *SyncTable) MemoryBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.t.MemoryBytes()
}

// MigrationStats summarises one executed migration.
type MigrationStats struct {
	// Moved counts tuples whose rows were relocated and routing flipped.
	Moved int
	// Skipped counts planned moves whose row had vanished (deleted or
	// never present at the planned source) by execution time.
	Skipped int
	// Batches and FailedBatches count migration transactions attempted
	// and permanently failed (their tuples stay put).
	Batches       int
	FailedBatches int
	// Aborts counts concurrency-control aborts (wait-die / timeouts)
	// migration transactions hit contending with live traffic before
	// committing.
	Aborts int
	// DrainErrors counts step-4 epoch barriers that failed because a
	// node was down (the batch still completed; see applyBatch).
	DrainErrors int
	// Elapsed is the wall-clock time to converge.
	Elapsed time.Duration
}

func (m MigrationStats) String() string {
	return fmt.Sprintf("moved=%d skipped=%d batches=%d failed=%d aborts=%d drain_errors=%d elapsed=%v",
		m.Moved, m.Skipped, m.Batches, m.FailedBatches, m.Aborts, m.DrainErrors, m.Elapsed)
}

// Executor applies migration plans through the cluster while traffic
// continues. Each batch runs a write-conserving five-step protocol:
//
//  1. flip the batch's routing entries to the UNION of old and new
//     replica sets, so every new write reaches both homes (updates to a
//     not-yet-copied replica match zero rows, harmlessly);
//  2. Coordinator.Drain — an epoch barrier: transactions routed before
//     the flip finish before any row is copied, so no write can land on
//     the old home after its row was read;
//  3. one migration transaction per batch exclusively locks the source
//     rows — one SELECT … WHERE key IN (…) FOR UPDATE per (table, source)
//     group — clears lingering replicas with one DELETE … IN per (table,
//     add set) group, re-creates each row on its added replicas with one
//     prepared INSERT, and two-phase commits (conflicts with live traffic
//     resolve via ordinary wait-die retries);
//  4. flip the entries to the final new sets and Drain again, so nobody
//     is still writing the union;
//  5. a cleanup transaction deletes the dropped replicas, one DELETE … IN
//     per (table, drop set) group.
//
// Plan.Batches sorts the moves so that a batch's groups are few: a batch
// that relocates one table's tuples from one source to one target costs
// a locked SELECT, a DELETE, one INSERT per tuple and a cleanup DELETE.
//
// The one remaining (documented) anomaly: a read routed during step 3
// may pick the replica whose copy has not committed yet and see no row;
// writes are never lost.
type Executor struct {
	co     *cluster.Coordinator
	meta   map[string]tableMeta
	tables map[string]*SyncTable
	// BatchSize is the number of tuple moves per migration transaction
	// (default 32).
	BatchSize int
}

// tableMeta is what the executor needs of one table's schema.
type tableMeta struct {
	key    string // key column name
	keyIdx int    // key column position in a SELECT * row
	// ins is INSERT INTO t (every column) VALUES (?, …), prepared once:
	// re-creating a row binds the row itself as the arguments.
	ins *sqlparse.Prepared
}

// NewExecutor returns a migration executor. schemas supplies each table's
// column layout (for re-creating rows); tables holds the routing entries to
// flip as moves commit. It panics if a table or column name is not an SQL
// identifier.
func NewExecutor(co *cluster.Coordinator, schemas map[string]*storage.TableSchema, tables map[string]*SyncTable) *Executor {
	meta := make(map[string]tableMeta, len(schemas))
	for name, schema := range schemas {
		// By name, not ColIndex: a schema need not have been through
		// CreateTable, which builds the column index.
		names := make([]string, len(schema.Columns))
		m := tableMeta{key: schema.Key, keyIdx: -1}
		for i, c := range schema.Columns {
			names[i] = c.Name
			if c.Name == schema.Key {
				m.keyIdx = i
			}
		}
		m.ins = sqlparse.MustPrepare(fmt.Sprintf("INSERT INTO %s (%s) VALUES (%s)",
			name, strings.Join(names, ", "), strings.TrimSuffix(strings.Repeat("?, ", len(names)), ", ")))
		meta[name] = m
	}
	return &Executor{co: co, meta: meta, tables: tables}
}

// Apply executes the plan and returns migration statistics.
func (e *Executor) Apply(plan Plan) MigrationStats {
	var stats MigrationStats
	var flips []int // step 1's union sets, built in place one move at a time
	start := time.Now()
	for _, batch := range plan.Batches(e.BatchSize) {
		stats.Batches++
		e.applyBatch(batch, &stats, &flips)
	}
	stats.Elapsed = time.Since(start)
	return stats
}

// applyBatch runs the five-step move protocol for one batch. scratch is
// reused for the step-1 union sets, which the routing tables copy.
func (e *Executor) applyBatch(batch []Move, stats *MigrationStats, scratch *[]int) {
	// Step 1+2: union flip, then wait out transactions routed before it.
	for _, m := range batch {
		*scratch = union(*scratch, m.To, m.Dels)
		e.flip(m.Table, m.Key, *scratch)
	}
	if err := e.co.Drain(); err != nil {
		// A node is down: the epoch barrier cannot be reached, so nothing
		// has been copied yet. Revert the flips and fail the batch — the
		// next migration cycle retries once the cluster is whole.
		for _, m := range batch {
			e.flip(m.Table, m.Key, union(nil, diff(m.To, m.Adds), m.Dels))
		}
		stats.FailedBatches++
		return
	}

	// Step 3: copy rows to their added replicas under exclusive locks.
	// System transactions: migration must not capture itself into the
	// drift window it is reacting to. rows[i] is batch[i]'s source row,
	// nil when it had vanished by this attempt.
	rows := make([]storage.Row, len(batch))
	_, aborts, err := e.co.RunSystemTxn(func(t *cluster.Txn) error {
		return e.copyRows(t, batch, rows)
	})
	stats.Aborts += aborts
	if err != nil {
		// Permanent failure: revert the batch's entries to their old sets
		// (union minus nothing was ever copied) and leave the tuples put.
		for _, m := range batch {
			e.flip(m.Table, m.Key, union(nil, diff(m.To, m.Adds), m.Dels))
		}
		stats.FailedBatches++
		return
	}

	// Step 4: final flip + barrier, so nobody still writes the union.
	copied := 0
	for i, m := range batch {
		if rows[i] == nil {
			// Vanished rows: restore the pre-migration entry.
			e.flip(m.Table, m.Key, union(nil, diff(m.To, m.Adds), m.Dels))
			continue
		}
		e.flip(m.Table, m.Key, m.To)
		copied++
	}
	if err := e.co.Drain(); err != nil {
		// The copies are committed and the final routing is in place; an
		// unreachable barrier here only means cleanup may delete a replica
		// some straggler could still have read (the documented step-3 read
		// anomaly, briefly wider). Writes are conserved either way, so
		// proceed to cleanup but record the degraded barrier.
		stats.DrainErrors++
	}

	// Step 5: drop the abandoned replicas.
	_, aborts, err = e.co.RunSystemTxn(func(t *cluster.Txn) error {
		return e.deleteGrouped(t, batch, rows, func(m *Move) []int { return m.Dels })
	})
	stats.Aborts += aborts
	if err != nil {
		// The copies and routing are in place; only dead replicas linger.
		stats.FailedBatches++
	}
	stats.Moved += copied
	stats.Skipped += len(batch) - copied
}

// copyRows is step 3's transaction body. It locks the batch's source rows
// with one SELECT … IN … FOR UPDATE per (table, source) run of the sorted
// batch and records each move's row in rows (nil when the row has since
// been deleted). It then clears lingering replicas on the add targets,
// which a previously failed cleanup can leave behind and which would make
// the INSERT hit a duplicate key and permanently fail the batch, and
// re-creates each row there with the table's prepared INSERT.
func (e *Executor) copyRows(t *cluster.Txn, batch []Move, rows []storage.Row) error {
	clear(rows) // a retried attempt starts over
	for lo := 0; lo < len(batch); {
		m := &batch[lo]
		hi := lo + 1
		for hi < len(batch) && batch[hi].Table == m.Table && batch[hi].CopyFrom == m.CopyFrom {
			hi++
		}
		meta, ok := e.meta[m.Table]
		if !ok {
			return fmt.Errorf("live: no schema for table %q", m.Table)
		}
		keys := make([]datum.D, hi-lo)
		for i := range keys {
			keys[i] = datum.NewInt(batch[lo+i].Key)
		}
		sel := &sqlparse.Select{Table: m.Table, Where: keyIn(meta.key, keys), Limit: -1, ForUpdate: true}
		got, err := t.ExecStmtAt(sel, []int{m.CopyFrom})
		if err != nil {
			return err
		}
		slices.SortFunc(got, func(a, b storage.Row) int { return cmp.Compare(a[meta.keyIdx].I, b[meta.keyIdx].I) })
		for i := lo; i < hi; i++ {
			j, found := slices.BinarySearchFunc(got, batch[i].Key, func(r storage.Row, k int64) int {
				return cmp.Compare(r[meta.keyIdx].I, k)
			})
			if found {
				rows[i] = got[j]
			}
		}
		lo = hi
	}
	if err := e.deleteGrouped(t, batch, rows, func(m *Move) []int { return m.Adds }); err != nil {
		return err
	}
	for i := range batch {
		m := &batch[i]
		if rows[i] == nil || len(m.Adds) == 0 {
			continue
		}
		if _, err := t.ExecPreparedAt(e.meta[m.Table].ins, m.Adds, rows[i]...); err != nil {
			return err
		}
	}
	return nil
}

// deleteGrouped deletes the batch's copied tuples (rows[i] != nil) from the
// node set nodes(m) names for each, with one DELETE … WHERE key IN (…) per
// (table, node set) group, in the order the groups first occur.
func (e *Executor) deleteGrouped(t *cluster.Txn, batch []Move, rows []storage.Row, nodes func(*Move) []int) error {
	done := make([]bool, len(batch))
	for i := range batch {
		m := &batch[i]
		if done[i] || rows[i] == nil || len(nodes(m)) == 0 {
			continue
		}
		keys := make([]datum.D, 1, len(batch)-i)
		keys[0] = datum.NewInt(m.Key)
		for j := i + 1; j < len(batch); j++ {
			o := &batch[j]
			if !done[j] && rows[j] != nil && o.Table == m.Table && slices.Equal(nodes(o), nodes(m)) {
				done[j] = true
				keys = append(keys, datum.NewInt(o.Key))
			}
		}
		del := &sqlparse.Delete{Table: m.Table, Where: keyIn(e.meta[m.Table].key, keys)}
		if _, err := t.ExecStmtAt(del, nodes(m)); err != nil {
			return err
		}
	}
	return nil
}

// keyIn builds the WHERE key IN (keys) predicate.
func keyIn(key string, keys []datum.D) sqlparse.Expr {
	return &sqlparse.In{Col: sqlparse.ColRef{Column: key}, Values: keys}
}

// flip rewrites one routing entry.
func (e *Executor) flip(table string, key int64, parts []int) {
	if t := e.tables[table]; t != nil {
		t.Set(key, parts)
	}
}

// union merges two sorted-ish partition sets into dst's array (result
// order irrelevant: lookup tables normalise).
func union(dst, a, b []int) []int {
	out := append(dst[:0], a...)
	for _, p := range b {
		if !slices.Contains(out, p) {
			out = append(out, p)
		}
	}
	return out
}

// diff returns a \ b.
func diff(a, b []int) []int {
	var out []int
	for _, p := range a {
		if !slices.Contains(b, p) {
			out = append(out, p)
		}
	}
	return out
}

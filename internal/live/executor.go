package live

import (
	"fmt"
	"slices"
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
//  3. one migration transaction per batch exclusively locks each source
//     row, re-creates it on the added replicas, and two-phase commits
//     (conflicts with live traffic resolve via ordinary wait-die
//     retries);
//  4. flip the entries to the final new sets and Drain again, so nobody
//     is still writing the union;
//  5. a cleanup transaction deletes the dropped replicas.
//
// The one remaining (documented) anomaly: a read routed during step 3
// may pick the replica whose copy has not committed yet and see no row;
// writes are never lost.
type Executor struct {
	co      *cluster.Coordinator
	schemas map[string]*storage.TableSchema
	// cols is each table's column-name list, shared by every INSERT that
	// re-creates one of its rows.
	cols   map[string][]string
	tables map[string]*SyncTable
	// BatchSize is the number of tuple moves per migration transaction
	// (default 32).
	BatchSize int
}

// NewExecutor returns a migration executor. schemas supplies each table's
// column layout (for rebuilding INSERT statements); tables holds the
// routing entries to flip as moves commit.
func NewExecutor(co *cluster.Coordinator, schemas map[string]*storage.TableSchema, tables map[string]*SyncTable) *Executor {
	cols := make(map[string][]string, len(schemas))
	for name, schema := range schemas {
		names := make([]string, len(schema.Columns))
		for i, c := range schema.Columns {
			names[i] = c.Name
		}
		cols[name] = names
	}
	return &Executor{co: co, schemas: schemas, cols: cols, tables: tables}
}

// Apply executes the plan and returns migration statistics.
func (e *Executor) Apply(plan Plan) MigrationStats {
	var stats MigrationStats
	start := time.Now()
	for _, batch := range plan.Batches(e.BatchSize) {
		stats.Batches++
		e.applyBatch(batch, &stats)
	}
	stats.Elapsed = time.Since(start)
	return stats
}

// applyBatch runs the five-step move protocol for one batch.
func (e *Executor) applyBatch(batch []Move, stats *MigrationStats) {
	// Step 1+2: union flip, then wait out transactions routed before it.
	for _, m := range batch {
		e.flip(m.Table, m.Key, union(m.To, m.Dels))
	}
	if err := e.co.Drain(); err != nil {
		// A node is down: the epoch barrier cannot be reached, so nothing
		// has been copied yet. Revert the flips and fail the batch — the
		// next migration cycle retries once the cluster is whole.
		for _, m := range batch {
			e.flip(m.Table, m.Key, union(diff(m.To, m.Adds), m.Dels))
		}
		stats.FailedBatches++
		return
	}

	// Step 3: copy rows to their added replicas under exclusive locks.
	// System transactions: migration must not capture itself into the
	// drift window it is reacting to.
	var copied []Move // moves whose source row existed this attempt
	_, aborts, err := e.co.RunSystemTxn(func(t *cluster.Txn) error {
		copied = copied[:0]
		for _, m := range batch {
			ok, err := e.copyTuple(t, m)
			if err != nil {
				return err
			}
			if ok {
				copied = append(copied, m)
			}
		}
		return nil
	})
	stats.Aborts += aborts
	if err != nil {
		// Permanent failure: revert the batch's entries to their old sets
		// (union minus nothing was ever copied) and leave the tuples put.
		for _, m := range batch {
			e.flip(m.Table, m.Key, union(diff(m.To, m.Adds), m.Dels))
		}
		stats.FailedBatches++
		return
	}

	// Step 4: final flip + barrier, so nobody still writes the union.
	for _, m := range copied {
		e.flip(m.Table, m.Key, m.To)
	}
	for _, m := range uncopied(batch, copied) {
		// Vanished rows: restore the pre-migration entry.
		e.flip(m.Table, m.Key, union(diff(m.To, m.Adds), m.Dels))
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
		for _, m := range copied {
			if len(m.Dels) == 0 {
				continue
			}
			del := &sqlparse.Delete{Table: m.Table, Where: e.keyEq(m.Table, m.Key)}
			if _, err := t.ExecStmtAt(del, m.Dels); err != nil {
				return err
			}
		}
		return nil
	})
	stats.Aborts += aborts
	if err != nil {
		// The copies and routing are in place; only dead replicas linger.
		stats.FailedBatches++
	}
	stats.Moved += len(copied)
	stats.Skipped += len(batch) - len(copied)
}

// copyTuple locks the tuple's surviving source row and re-creates it on
// the added replicas. Returns false when the row no longer exists
// (concurrently deleted, or a floating tuple the plan mislocated).
func (e *Executor) copyTuple(t *cluster.Txn, m Move) (bool, error) {
	cols, ok := e.cols[m.Table]
	if !ok {
		return false, fmt.Errorf("live: no schema for table %q", m.Table)
	}
	sel := &sqlparse.Select{Table: m.Table, Where: e.keyEq(m.Table, m.Key), Limit: -1, ForUpdate: true}
	rows, err := t.ExecStmtAt(sel, []int{m.CopyFrom})
	if err != nil {
		return false, err
	}
	if len(rows) == 0 {
		return false, nil
	}
	if len(m.Adds) > 0 {
		// Clear any lingering replica first (a previously failed cleanup
		// can leave one behind); otherwise the INSERT would hit a
		// duplicate key and permanently fail the batch.
		del := &sqlparse.Delete{Table: m.Table, Where: e.keyEq(m.Table, m.Key)}
		if _, err := t.ExecStmtAt(del, m.Adds); err != nil {
			return false, err
		}
		ins := &sqlparse.Insert{Table: m.Table, Cols: cols, Values: rows[0]}
		if _, err := t.ExecStmtAt(ins, m.Adds); err != nil {
			return false, err
		}
	}
	return true, nil
}

// keyEq builds the WHERE key = value predicate for a table.
func (e *Executor) keyEq(table string, key int64) sqlparse.Expr {
	return &sqlparse.Compare{
		Col:   sqlparse.ColRef{Column: e.schemas[table].Key},
		Op:    sqlparse.OpEq,
		Value: datum.NewInt(key),
	}
}

// flip rewrites one routing entry.
func (e *Executor) flip(table string, key int64, parts []int) {
	if t := e.tables[table]; t != nil {
		t.Set(key, parts)
	}
}

// union merges two sorted-ish partition sets (result order irrelevant:
// lookup tables normalise).
func union(a, b []int) []int {
	out := append([]int(nil), a...)
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

// uncopied returns the batch moves not present in copied.
func uncopied(batch, copied []Move) []Move {
	if len(copied) == len(batch) {
		return nil
	}
	var out []Move
	for _, m := range batch {
		found := false
		for _, c := range copied {
			if c.Table == m.Table && c.Key == m.Key {
				found = true
				break
			}
		}
		if !found {
			out = append(out, m)
		}
	}
	return out
}

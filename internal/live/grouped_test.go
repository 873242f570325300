package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"schism/internal/cluster"
	"schism/internal/datum"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
)

// perTupleExecutor is the migration executor as it was before batches ran
// grouped statements, kept as the oracle of
// TestExecutorGroupedMatchesPerTuple: batches cut from the plan's moves in
// plan order, and per move a locked SELECT of the key at its source, a
// DELETE and an ad-hoc INSERT on its add targets, and a cleanup DELETE on
// its drop targets. The five-step protocol around them is Executor's.
type perTupleExecutor struct {
	co        *cluster.Coordinator
	schemas   map[string]*storage.TableSchema
	tables    map[string]*SyncTable
	batchSize int
}

func (e *perTupleExecutor) apply(plan Plan) MigrationStats {
	var stats MigrationStats
	for lo := 0; lo < len(plan.Moves); lo += e.batchSize {
		stats.Batches++
		e.applyBatch(plan.Moves[lo:min(lo+e.batchSize, len(plan.Moves))], &stats)
	}
	return stats
}

func (e *perTupleExecutor) flip(table string, key int64, parts []int) {
	if t := e.tables[table]; t != nil {
		t.Set(key, parts)
	}
}

func (e *perTupleExecutor) applyBatch(batch []Move, stats *MigrationStats) {
	for _, m := range batch {
		e.flip(m.Table, m.Key, union(nil, m.To, m.Dels))
	}
	if err := e.co.Drain(); err != nil {
		for _, m := range batch {
			e.flip(m.Table, m.Key, union(nil, diff(m.To, m.Adds), m.Dels))
		}
		stats.FailedBatches++
		return
	}
	var copied []Move
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
		for _, m := range batch {
			e.flip(m.Table, m.Key, union(nil, diff(m.To, m.Adds), m.Dels))
		}
		stats.FailedBatches++
		return
	}
	for _, m := range copied {
		e.flip(m.Table, m.Key, m.To)
	}
	for _, m := range batch {
		if !slices.ContainsFunc(copied, func(c Move) bool { return c.Table == m.Table && c.Key == m.Key }) {
			e.flip(m.Table, m.Key, union(nil, diff(m.To, m.Adds), m.Dels))
		}
	}
	if err := e.co.Drain(); err != nil {
		stats.DrainErrors++
	}
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
		stats.FailedBatches++
	}
	stats.Moved += len(copied)
	stats.Skipped += len(batch) - len(copied)
}

func (e *perTupleExecutor) copyTuple(t *cluster.Txn, m Move) (bool, error) {
	schema := e.schemas[m.Table]
	sel := &sqlparse.Select{Table: m.Table, Where: e.keyEq(m.Table, m.Key), Limit: -1, ForUpdate: true}
	rows, err := t.ExecStmtAt(sel, []int{m.CopyFrom})
	if err != nil || len(rows) == 0 {
		return false, err
	}
	if len(m.Adds) > 0 {
		del := &sqlparse.Delete{Table: m.Table, Where: e.keyEq(m.Table, m.Key)}
		if _, err := t.ExecStmtAt(del, m.Adds); err != nil {
			return false, err
		}
		cols := make([]string, len(schema.Columns))
		for i, c := range schema.Columns {
			cols[i] = c.Name
		}
		ins := &sqlparse.Insert{Table: m.Table, Cols: cols, Values: rows[0]}
		if _, err := t.ExecStmtAt(ins, m.Adds); err != nil {
			return false, err
		}
	}
	return true, nil
}

func (e *perTupleExecutor) keyEq(table string, key int64) sqlparse.Expr {
	return &sqlparse.Compare{
		Col:   sqlparse.ColRef{Column: e.schemas[table].Key},
		Op:    sqlparse.OpEq,
		Value: datum.NewInt(key),
	}
}

// migrationSpec is a random multi-table placement and the plan that
// moves it: every tuple's deployed replica set, the tuples missing from
// every node (vanished: routed, but their row is gone), and lingering
// replicas (a row on a partition its routing entry does not name).
type migrationSpec struct {
	k, r      int
	schemas   map[string]*storage.TableSchema
	keys      int
	placement map[workload.TupleID][]int
	vanished  map[workload.TupleID]bool
	linger    map[workload.TupleID]int
	ids       []workload.TupleID
	newSets   [][]int
	batchSize int
}

func randomMigrationSpec(rng *rand.Rand, r int) *migrationSpec {
	s := &migrationSpec{
		k: 3 + rng.Intn(2), r: r, keys: 24,
		schemas:   map[string]*storage.TableSchema{},
		placement: map[workload.TupleID][]int{},
		vanished:  map[workload.TupleID]bool{},
		linger:    map[workload.TupleID]int{},
		batchSize: []int{3, 8, 32}[rng.Intn(3)],
	}
	// Tables differ in width, column types and key column name and
	// position, so each one's prepared INSERT is its own.
	all := []*storage.TableSchema{
		{Name: "acct", Columns: []storage.Column{{Name: "id", Type: storage.IntCol}, {Name: "bal", Type: storage.IntCol}}, Key: "id"},
		{Name: "item", Columns: []storage.Column{{Name: "name", Type: storage.StringCol}, {Name: "i_id", Type: storage.IntCol}, {Name: "price", Type: storage.FloatCol}}, Key: "i_id"},
		{Name: "stock", Columns: []storage.Column{{Name: "s_id", Type: storage.IntCol}, {Name: "qty", Type: storage.IntCol}, {Name: "w", Type: storage.IntCol}, {Name: "dist", Type: storage.StringCol}}, Key: "s_id"},
	}
	tables := all[:2+rng.Intn(2)]
	for _, sc := range tables {
		s.schemas[sc.Name] = sc
	}
	randSet := func(max int) []int {
		set := rng.Perm(s.k)[:1+rng.Intn(max)]
		slices.Sort(set)
		return set
	}
	for _, sc := range tables {
		for key := 0; key < s.keys; key++ {
			id := workload.TupleID{Table: sc.Name, Key: int64(key)}
			s.placement[id] = randSet(2)
			switch rng.Intn(10) {
			case 0:
				s.vanished[id] = true
			case 1, 2:
				// A lingering replica, most likely on an add target.
				if p := rng.Intn(s.k); !slices.Contains(s.placement[id], p) {
					s.linger[id] = p
				}
			}
			if rng.Intn(4) != 0 {
				s.ids = append(s.ids, id)
				s.newSets = append(s.newSets, randSet(3))
			}
		}
	}
	// Interleave the tables in the plan so batches start out mixed.
	rng.Shuffle(len(s.ids), func(i, j int) {
		s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
		s.newSets[i], s.newSets[j] = s.newSets[j], s.newSets[i]
	})
	return s
}

// row is the deterministic content of one tuple.
func (s *migrationSpec) row(sc *storage.TableSchema, key int64) storage.Row {
	row := make(storage.Row, len(sc.Columns))
	for i, c := range sc.Columns {
		switch {
		case c.Name == sc.Key:
			row[i] = datum.NewInt(key)
		case c.Type == storage.IntCol:
			row[i] = datum.NewInt(key*10 + int64(i))
		case c.Type == storage.FloatCol:
			row[i] = datum.NewFloat(float64(key) / 4)
		default:
			row[i] = datum.NewString(fmt.Sprintf("%s-%d", sc.Name, key))
		}
	}
	return row
}

// build starts a cluster holding the spec's placement and deploys its
// routing.
func (s *migrationSpec) build(t *testing.T) (*cluster.Cluster, *cluster.Coordinator, map[string]*SyncTable) {
	t.Helper()
	cfg := cluster.Config{Nodes: s.k * s.r, LockTimeout: 2 * time.Second}
	if s.r > 1 {
		cfg.ReplicationFactor = s.r
		cfg.ReplHeartbeat = 2 * time.Millisecond
		cfg.ReplElection = 25 * time.Millisecond
		cfg.ReplSeed = 5
	}
	load := func(db *storage.Database, holds func(workload.TupleID) bool) {
		for _, sc := range s.schemas {
			name := sc.Name
			tbl := db.MustCreateTable(&storage.TableSchema{Name: sc.Name, Columns: sc.Columns, Key: sc.Key})
			for key := 0; key < s.keys; key++ {
				if !holds(workload.TupleID{Table: name, Key: int64(key)}) {
					continue
				}
				if err := tbl.Insert(s.row(sc, int64(key))); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c := cluster.New(cfg, func(node int) *storage.Database {
		group := node / s.r
		db := storage.NewDatabase()
		load(db, func(id workload.TupleID) bool {
			if s.vanished[id] {
				return false
			}
			p, lingers := s.linger[id]
			return slices.Contains(s.placement[id], group) || lingers && p == group
		})
		return db
	})
	full := storage.NewDatabase()
	load(full, func(workload.TupleID) bool { return true })
	keyCols := map[string]string{}
	for name, sc := range s.schemas {
		keyCols[name] = sc.Key
	}
	strat, tables := DeployLookup(full, s.k, keyCols, func(id workload.TupleID) []int { return s.placement[id] })
	co := cluster.NewCoordinator(c, strat)
	if s.r > 1 && !c.WaitForLeaders(5*time.Second) {
		t.Fatal("no leaders elected")
	}
	return c, co, tables
}

// checkCoverage fails the test unless the plan has every shape the
// differential is meant to meet.
func (s *migrationSpec) checkCoverage(t *testing.T, plan Plan) {
	t.Helper()
	var lingerOnAdd, multiAdd, multiDrop bool
	for _, m := range plan.Moves {
		id := workload.TupleID{Table: m.Table, Key: m.Key}
		p, lingers := s.linger[id]
		lingerOnAdd = lingerOnAdd || lingers && !s.vanished[id] && slices.Contains(m.Adds, p)
		multiAdd = multiAdd || len(m.Adds) > 1
		multiDrop = multiDrop || len(m.Dels) > 1
	}
	if !lingerOnAdd || !multiAdd || !multiDrop {
		t.Fatalf("plan lacks a shape: lingering replica on an add target %v, multi-node adds %v, multi-node drops %v",
			lingerOnAdd, multiAdd, multiDrop)
	}
}

// snapshotCluster returns every node's rows per table, in key order.
func snapshotCluster(c *cluster.Cluster) []map[string][]storage.Row {
	out := make([]map[string][]storage.Row, c.NumNodes())
	for node := range out {
		db := c.Node(node).DB()
		out[node] = map[string][]storage.Row{}
		for _, name := range db.TableNames() {
			var rows []storage.Row
			db.Table(name).ScanAll(func(_ int64, row storage.Row) bool {
				rows = append(rows, row)
				return true
			})
			out[node][name] = rows
		}
	}
	return out
}

// TestExecutorGroupedMatchesPerTuple runs random plans through Executor
// and through the per-tuple oracle on twin clusters, over two or three
// tables and three or four partitions at R = 1 and R = 3. The plans mix
// tables within batches, add and drop several replicas at once, meet rows
// that vanished and replicas that linger on add targets. Every node's
// table contents, every routing entry and the moved/skipped counts must
// agree.
func TestExecutorGroupedMatchesPerTuple(t *testing.T) {
	for _, r := range []int{1, 3} {
		seeds := 8
		if r > 1 {
			seeds = 4
		}
		for seed := int64(1); seed <= int64(seeds); seed++ {
			t.Run(fmt.Sprintf("R=%d/seed=%d", r, seed), func(t *testing.T) {
				spec := randomMigrationSpec(rand.New(rand.NewSource(seed)), r)
				run := func(apply func(*cluster.Coordinator, map[string]*SyncTable, Plan) MigrationStats) (MigrationStats, []map[string][]storage.Row, map[workload.TupleID][]int) {
					c, co, tables := spec.build(t)
					defer c.Close()
					plan := BuildPlan(spec.ids, func(id workload.TupleID) []int {
						p, _ := tables[id.Table].Locate(id.Key)
						return p
					}, spec.newSets)
					stats := apply(co, tables, plan)
					if err := co.Drain(); err != nil {
						t.Fatal(err)
					}
					if r > 1 && !c.WaitReplicated(5*time.Second) {
						t.Fatal("replicas did not converge after migration")
					}
					routes := map[workload.TupleID][]int{}
					for id := range spec.placement {
						p, _ := tables[id.Table].Locate(id.Key)
						p = slices.Clone(p)
						slices.Sort(p)
						routes[id] = p
					}
					return stats, snapshotCluster(c), routes
				}
				grouped, gotRows, gotRoutes := run(func(co *cluster.Coordinator, tables map[string]*SyncTable, plan Plan) MigrationStats {
					spec.checkCoverage(t, plan)
					exec := NewExecutor(co, spec.schemas, tables)
					exec.BatchSize = spec.batchSize
					return exec.Apply(plan)
				})
				oracle, wantRows, wantRoutes := run(func(co *cluster.Coordinator, tables map[string]*SyncTable, plan Plan) MigrationStats {
					exec := &perTupleExecutor{co: co, schemas: spec.schemas, tables: tables, batchSize: spec.batchSize}
					return exec.apply(plan)
				})
				if grouped.Moved != oracle.Moved || grouped.Skipped != oracle.Skipped ||
					grouped.FailedBatches != 0 || oracle.FailedBatches != 0 {
					t.Fatalf("grouped %v, per-tuple %v", grouped, oracle)
				}
				if oracle.Skipped == 0 || oracle.Moved == 0 {
					t.Fatalf("plan moved %d and skipped %d tuples: want both kinds", oracle.Moved, oracle.Skipped)
				}
				if !reflect.DeepEqual(gotRoutes, wantRoutes) {
					for id, want := range wantRoutes {
						if !slices.Equal(gotRoutes[id], want) {
							t.Errorf("%v routes to %v, per-tuple %v", id, gotRoutes[id], want)
						}
					}
					t.FailNow()
				}
				for node := range wantRows {
					for name, want := range wantRows[node] {
						if got := gotRows[node][name]; !reflect.DeepEqual(got, want) {
							t.Fatalf("node %d table %s holds %v, per-tuple %v", node, name, got, want)
						}
					}
				}
			})
		}
	}
}

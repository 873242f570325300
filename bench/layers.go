package main

import (
	"fmt"
	"time"

	"schism/internal/cluster/wal"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/txn"
	"schism/internal/workload"
)

// replayTxns is how many trace transactions the statement-path probes
// replay.
const replayTxns = 2000

// stmtPath is the cost of one statement's trip through the layers a
// transaction crosses, each timed alone on one goroutine.
type stmtPath struct {
	parseNS, constraintsNS, routeNS float64 // per statement
	lockNS                          float64 // per uncontended acquire + release
	getNS, updateNS                 float64 // per storage point op
	walNSPerTxn                     float64 // per transaction's writes + commit record
	writeFrac                       float64 // share of trace accesses that write
}

// perTxnUS is what the probed layers predict a transaction of stmts
// statements costs; the rest of cpu_us_per_txn is unattributed.
func (p stmtPath) perTxnUS(stmts float64) float64 {
	storageNS := p.writeFrac*p.updateNS + (1-p.writeFrac)*p.getNS
	return (stmts*(p.parseNS+p.constraintsNS+p.routeNS+p.lockNS+storageNS) + p.walNSPerTxn) / 1e3
}

// probeStmtPath replays the SQL and access sets of the trace's first
// replayTxns transactions through sqlparse.Parse, sqlparse.Constraints,
// Strategy.RouteStmt, Router.Locate, the lock manager, storage point
// operations and WAL appends, one layer at a time.
func probeStmtPath(e *env, tr *workload.Trace, strat partition.Strategy, db *storage.Database) (stmtPath, error) {
	txns := tr.Txns[:min(replayTxns, len(tr.Txns))]
	var sqls []string
	var accs []workload.Access
	for _, tx := range txns {
		sqls = append(sqls, tx.SQL...)
		accs = append(accs, tx.Accesses...)
	}
	if len(sqls) == 0 || len(accs) == 0 {
		return stmtPath{}, fmt.Errorf("trace carries no SQL to replay")
	}
	var p stmtPath
	root := e.buf.begin(probeID+3, "probe.stmt-path", -1)
	defer e.buf.end(root)
	timed := func(name string, n int, fn func()) float64 {
		return float64(e.buf.timed(probeID+3, name, root, fn)) / float64(n)
	}

	stmts := make([]sqlparse.Statement, len(sqls))
	var perr error
	p.parseNS = timed("sqlparse.Parse", len(sqls), func() {
		for i, s := range sqls {
			if stmts[i], perr = sqlparse.Parse(s); perr != nil {
				return
			}
		}
	})
	if perr != nil {
		return p, fmt.Errorf("replay parse: %w", perr)
	}
	type routed struct {
		table string
		cons  []sqlparse.Constraint
		ok    bool
	}
	rs := make([]routed, len(stmts))
	p.constraintsNS = timed("sqlparse.Constraints", len(stmts), func() {
		for i, s := range stmts {
			rs[i].table, rs[i].cons, rs[i].ok = sqlparse.Constraints(s)
		}
	})
	p.routeNS = timed("Strategy.RouteStmt", len(rs), func() {
		for _, r := range rs {
			strat.RouteStmt(r.table, r.cons, r.ok)
		}
	})
	if l, ok := strat.(*partition.Lookup); ok {
		e.set("lookup.locate_ns", timed("Router.Locate", len(accs), func() {
			for _, a := range accs {
				l.Router.Locate(a.Tuple.Table, a.Tuple.Key)
			}
		}))
		e.set("lookup.routing_bytes", float64(l.MemoryBytes()))
	}

	lm := txn.NewLockManager(time.Second)
	defer lm.Close()
	var lerr error
	p.lockNS = timed("LockManager.Acquire+ReleaseAll", len(accs), func() {
		for i, a := range accs {
			mode := txn.Shared
			if a.Write {
				mode = txn.Exclusive
			}
			ts := txn.TS(i + 1)
			if lerr = lm.Acquire(ts, txn.LockKey{Table: a.Tuple.Table, Key: a.Tuple.Key}, mode); lerr != nil {
				return
			}
			lm.ReleaseAll(ts)
		}
	})
	if lerr != nil {
		return p, fmt.Errorf("replay lock: %w", lerr)
	}

	// Storage and WAL see only tuples that exist in the populated image;
	// rows the trace inserts are skipped.
	scratch := db.Clone()
	var have []workload.Access
	var rows []storage.Row
	writes := 0
	for _, a := range accs {
		if a.Write {
			writes++
		}
		if t := scratch.Table(a.Tuple.Table); t != nil {
			if row, ok := t.Get(a.Tuple.Key); ok {
				have = append(have, a)
				rows = append(rows, row)
			}
		}
	}
	p.writeFrac = float64(writes) / float64(len(accs))
	if len(have) == 0 {
		return p, fmt.Errorf("no replayed tuple exists in the database image")
	}
	p.getNS = timed("Table.Get", len(have), func() {
		for _, a := range have {
			scratch.Table(a.Tuple.Table).Get(a.Tuple.Key)
		}
	})
	var uerr error
	p.updateNS = timed("Table.Update", len(have), func() {
		for i, a := range have {
			if uerr = scratch.Table(a.Tuple.Table).Update(a.Tuple.Key, rows[i]); uerr != nil {
				return
			}
		}
	})
	if uerr != nil {
		return p, fmt.Errorf("replay update: %w", uerr)
	}

	log := wal.New(0, 0)
	p.walNSPerTxn = timed("wal.AppendUpdate+AppendCommit", len(txns), func() {
		for i, tx := range txns {
			ts := uint64(i + 1)
			for _, a := range tx.Accesses {
				if !a.Write {
					continue
				}
				var old storage.Row
				if t := scratch.Table(a.Tuple.Table); t != nil {
					old, _ = t.Get(a.Tuple.Key)
				}
				log.AppendUpdate(ts, a.Tuple.Table, a.Tuple.Key, old, old != nil)
			}
			log.AppendCommit(ts)
		}
	})

	e.set("sqlparse.parse_ns_per_stmt", p.parseNS)
	e.set("sqlparse.constraints_ns_per_stmt", p.constraintsNS)
	e.set("partition.route_ns_per_stmt", p.routeNS)
	e.set("txn.lock_ns_per_acquire", p.lockNS)
	e.set("storage.get_ns", p.getNS)
	e.set("storage.update_ns", p.updateNS)
	e.set("wal.append_ns_per_txn", p.walNSPerTxn)
	return p, nil
}

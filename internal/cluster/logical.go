package cluster

import (
	"fmt"
	"slices"

	"schism/internal/datum"
	"schism/internal/storage"
)

// Snapshot is the logical content of a drained cluster: every key of
// every table once, with the hash of its row. It is what one-copy
// equivalence speaks about — a partitioned, replicated cluster is
// correct when its snapshot equals that of a single node running the
// same transactions — so tests compare Digests across placements and
// read logical rows through Visit instead of scanning node images.
type Snapshot struct {
	c      *Cluster
	tables map[string]map[int64]logicalRow
}

// logicalRow is one key's entry: its row hash, the node whose copy Visit
// reads, and the node that last vouched for it (Logical's group check).
type logicalRow struct {
	hash       uint64
	node, mark int32
}

// Logical reads the cluster's logical content. Call it on a drained
// cluster (Coordinator.Drain); at R > 1 it first waits, up to a fixed
// timeout, for every running member to apply its leader's log. It reads
// every running node and fails, naming the table and key, when two
// copies of a row differ: two members of one group, or replicas of one
// tuple on different groups. It also fails when a group has no running
// member, or when its members do not hold the same keys.
func Logical(c *Cluster) (*Snapshot, error) {
	if !c.WaitReplicated(settleTimeout) {
		return nil, fmt.Errorf("cluster: replicas did not converge within %v", settleTimeout)
	}
	s := &Snapshot{c: c, tables: make(map[string]map[int64]logicalRow)}
	for g := 0; g < c.NumGroups(); g++ {
		ref := -1
		for _, m := range c.GroupMembers(g) {
			if !c.NodeRunning(m) {
				continue
			}
			var err error
			if ref < 0 {
				ref = m
				err = s.add(m)
			} else {
				err = s.match(ref, m)
			}
			if err != nil {
				return nil, err
			}
		}
		if ref < 0 {
			return nil, fmt.Errorf("cluster: group %d has no running member", g)
		}
	}
	return s, nil
}

// add enters node's rows, checking each against a copy another group
// already entered, and marks them as node's.
func (s *Snapshot) add(node int) error {
	db := s.c.nodes[node].db
	for _, name := range db.TableNames() {
		t := s.table(name)
		var err error
		db.Table(name).ViewAll(func(key int64, row storage.Row) bool {
			h := rowHash(row)
			e, ok := t[key]
			if ok && e.hash != h {
				err = fmt.Errorf("cluster: table %s key %d: nodes %d and %d hold different rows", name, key, e.node, node)
				return false
			}
			if !ok {
				e = logicalRow{hash: h, node: int32(node)}
			}
			e.mark = int32(node)
			t[key] = e
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// match checks that node holds exactly ref's rows, ref being the group
// member add entered.
func (s *Snapshot) match(ref, node int) error {
	db, rdb := s.c.nodes[node].db, s.c.nodes[ref].db
	for _, name := range db.TableNames() {
		t := s.table(name)
		var err error
		db.Table(name).ViewAll(func(key int64, row storage.Row) bool {
			switch e, ok := t[key]; {
			case !ok || e.mark != int32(ref):
				err = fmt.Errorf("cluster: table %s key %d: node %d holds a row its group's node %d lacks", name, key, node, ref)
			case e.hash != rowHash(row):
				err = fmt.Errorf("cluster: table %s key %d: nodes %d and %d hold different rows", name, key, ref, node)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	// Every row of node is one of ref's; equal counts make them all.
	for _, name := range rdb.TableNames() {
		rt, nt := rdb.Table(name), db.Table(name)
		if nt != nil && nt.Len() == rt.Len() {
			continue
		}
		var err error
		rt.ScanAllKeys(func(key int64) bool {
			if nt == nil || !nt.Has(key) {
				err = fmt.Errorf("cluster: table %s key %d: node %d lacks a row its group's node %d holds", name, key, node, ref)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *Snapshot) table(name string) map[int64]logicalRow {
	t := s.tables[name]
	if t == nil {
		t = make(map[int64]logicalRow)
		s.tables[name] = t
	}
	return t
}

// Len returns the number of logical rows of table.
func (s *Snapshot) Len(table string) int { return len(s.tables[table]) }

// Visit calls fn once per logical row of table, reading one copy of it
// from the cluster, which must not have changed since Logical. The row
// is a buffer fn must not keep past its return. Rows come in no
// particular order.
func (s *Snapshot) Visit(table string, fn func(key int64, row storage.Row)) {
	t := s.tables[table]
	for i, n := range s.c.nodes {
		tbl := n.db.Table(table)
		if tbl == nil {
			continue
		}
		tbl.ViewAll(func(key int64, row storage.Row) bool {
			if e, ok := t[key]; ok && e.node == int32(i) {
				fn(key, row)
			}
			return true
		})
	}
}

// Digest folds every table name, key and row hash, in sorted order, into
// one value: two snapshots with equal digests hold the same rows.
func (s *Snapshot) Digest() uint64 {
	names := make([]string, 0, len(s.tables))
	for name := range s.tables {
		names = append(names, name)
	}
	slices.Sort(names)
	h := uint64(fnvOffset)
	for _, name := range names {
		t := s.tables[name]
		h = mix(h, datum.Hash(datum.NewString(name)))
		keys := make([]int64, 0, len(t))
		for key := range t {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for _, key := range keys {
			h = mix(mix(h, uint64(key)), t[key].hash)
		}
	}
	return h
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// mix folds the word v into h, FNV-1a style.
func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// rowHash hashes a row column by column (datum.Hash per value).
func rowHash(row storage.Row) uint64 {
	h := uint64(fnvOffset)
	for _, d := range row {
		h = mix(h, datum.Hash(d))
	}
	return h
}

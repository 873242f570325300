package live

import (
	"schism/internal/lookup"
	"schism/internal/partition"
	"schism/internal/storage"
	"schism/internal/workload"
)

// DeployLookup builds the mutable routing state the live loop adapts: a
// per-tuple lookup strategy covering every existing tuple of db, placed
// by locate (nil replica sets fall back to key-hash placement so every
// existing tuple gets a definite home). Each table is a Compact holding
// every existing key, finished by Trim: dense keys stay in slots, and a
// table whose keys are too sparse for them keeps its keys in its side map.
// Either way the migration executor flips each moved tuple's entry twice
// under the SyncTable write lock, in O(1), and a finished table keeps
// accepting those Sets. The returned SyncTables are what the executor
// flips as tuples move. The strategy has no rules: a key born after
// deployment sits at its key hash.
func DeployLookup(db *storage.Database, k int, keyCols map[string]string, locate LocateFunc) (*partition.Lookup, map[string]*SyncTable) {
	router := lookup.NewRouter(k)
	sync := make(map[string]*SyncTable)
	for _, name := range db.TableNames() {
		t := lookup.NewCompact()
		db.Table(name).ScanAllKeys(func(key int64) bool {
			id := workload.TupleID{Table: name, Key: key}
			parts := locate(id)
			if len(parts) == 0 {
				// The hash fallback partition.Lookup itself would apply.
				parts = []int{partition.HashPart(key, k)}
			}
			t.Set(key, parts)
			return true
		})
		t.Trim()
		st := NewSyncTable(t)
		sync[name] = st
		router.Put(name, st)
	}
	return &partition.Lookup{K: k, Router: router, KeyColumn: keyCols}, sync
}

package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"schism/internal/cluster/repl"
	"schism/internal/datum"
	"schism/internal/storage"
	"schism/internal/txn"
)

// TestGroupSnapshotCommittedPrefix takes a compaction snapshot on a leader
// while a transaction is in flight there and a prepared transaction is
// unresolved, restores it onto a member that missed the traffic, and
// rebuilds pendings from the same bytes: the image must be exactly the
// group-committed prefix.
func TestGroupSnapshotCommittedPrefix(t *testing.T) {
	c, co := deploy(t, Config{
		Nodes:              3,
		ReplicationFactor:  3,
		LockTimeout:        500 * time.Millisecond,
		ReplHeartbeat:      2 * time.Millisecond,
		ReplElection:       25 * time.Millisecond,
		ReplCompactEntries: 8,
		ReplSeed:           7,
	}, accountDB(t, 10), accountHash(1))
	defer c.Close()
	leader := c.LeaderOf(0)
	member := c.GroupMembers(0)[0]
	if member == leader {
		member = c.GroupMembers(0)[1]
	}
	c.Crash(member) // it misses everything below and catches up from the image

	// In flight on the leader: key 1 updated, key 100 inserted, key 2
	// deleted.
	tx := co.begin(false)
	defer tx.abort()
	for _, sql := range []string{
		"UPDATE account SET bal = 7 WHERE id = 1",
		"INSERT INTO account (id, bal) VALUES (100, 5)",
		"DELETE FROM account WHERE id = 2",
	} {
		if _, err := tx.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Unresolved: the coordinator reports the transaction in flight, so the
	// leader's resolver leaves its pending alone.
	pts := txn.TS(1 << 50)
	co.register(pts)
	defer co.deregister(pts)
	want := map[txn.TS]*pendingPrepare{pts: {epoch: 3, redo: []repl.Mutation{
		{Table: "account", Key: 5, Row: []datum.D{datum.NewInt(5), datum.NewInt(4242)}},
		{Table: "account", Key: 6},
	}}}
	lgr := c.Node(leader).grp.Load()
	lgr.pmu.Lock()
	lgr.pendings[pts] = want[pts]
	lgr.pmu.Unlock()

	// Committed traffic on other keys makes the leader compact.
	const inserts = 20
	for i := 0; i < inserts; i++ {
		if _, _, err := co.RunTxn(func(tx *Txn) error {
			_, err := tx.Exec(fmt.Sprintf("INSERT INTO account (id, bal) VALUES (%d, %d)", 200+i, i))
			return err
		}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if !c.WaitReplicated(5 * time.Second) {
		t.Fatal("leader did not apply its log")
	}
	c.Crash(leader) // stops its apply loop: the durable snapshot stays put
	snap, snapIdx := c.durables[leader].Snapshot()
	if snapIdx == 0 {
		t.Fatal("leader never compacted")
	}

	n := c.Node(member)
	gr := n.grp.Load()
	n.latch.Lock()
	if err := n.db.Table("account").Insert(storage.Row{datum.NewInt(999), datum.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	n.latch.Unlock()
	gr.pendings[77] = &pendingPrepare{epoch: 1} // the member is down: no one else reads it
	gr.Restore(snap)

	img := make(map[int64]int64)
	n.db.Table("account").ScanAll(func(k int64, row storage.Row) bool {
		img[k] = row[1].I
		return true
	})
	for k := int64(0); k < 10; k++ {
		if v, ok := img[k]; !ok || v != 1000 {
			t.Fatalf("key %d = %d (present %v) in the image, want its committed 1000", k, v, ok)
		}
	}
	for _, k := range []int64{100, 999} {
		if v, ok := img[k]; ok {
			t.Fatalf("key %d = %d in the image, want it absent", k, v)
		}
	}
	committed := 0
	for committed < inserts {
		if v, ok := img[int64(200+committed)]; !ok || v != int64(committed) {
			break
		}
		committed++
	}
	if committed == 0 || len(img) != 10+committed {
		t.Fatalf("image holds %d rows, want the 10 accounts and a non-empty prefix of the inserts (%d)", len(img), committed)
	}
	requirePendings(t, "restored", gr.pendings, want)

	rebuilt := &groupRuntime{pendings: make(map[txn.TS]*pendingPrepare)}
	rebuilt.rebuildPendings(c.durables[leader])
	requirePendings(t, "rebuilt", rebuilt.pendings, want)
}

// requirePendings compares pendings by what an image carries: ts, epoch
// and redo.
func requirePendings(t *testing.T, what string, got, want map[txn.TS]*pendingPrepare) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pendings, want %d", what, len(got), len(want))
	}
	for ts, w := range want {
		g := got[ts]
		if g == nil || g.epoch != w.epoch || !reflect.DeepEqual(g.redo, w.redo) {
			t.Fatalf("%s: pending %d = %+v, want %+v", what, ts, g, w)
		}
	}
}

// snapshotFixture is a member whose image exercises every part of the
// format: every kind of value, an empty table, an in-flight transaction
// that updated, inserted and deleted, and pendings with and without redo.
func snapshotFixture() *groupRuntime {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable(&storage.TableSchema{
		Name: "kinds",
		Columns: []storage.Column{
			{Name: "id", Type: storage.IntCol},
			{Name: "f", Type: storage.FloatCol},
			{Name: "s", Type: storage.StringCol},
		},
		Key: "id",
	})
	db.MustCreateTable(&storage.TableSchema{
		Name:    "empty",
		Columns: []storage.Column{{Name: "id", Type: storage.IntCol}},
		Key:     "id",
	})
	for _, row := range []storage.Row{
		{datum.NewInt(1), datum.NewFloat(1.5), datum.NewString("a")},
		{datum.NewInt(2), datum.NewFloat(math.NaN()), datum.NewString("")},
		{datum.NewInt(3), datum.NullD, datum.NewString("xyz")},
		{datum.NewInt(-4), datum.NewFloat(math.Copysign(0, -1)), datum.NullD},
	} {
		if err := tbl.Insert(row); err != nil {
			panic(err)
		}
	}
	old1, _ := tbl.Get(1)
	old3, _ := tbl.Get(3)
	if err := tbl.Update(1, storage.Row{datum.NewInt(1), datum.NewFloat(2.5), datum.NewString("b")}); err != nil {
		panic(err)
	}
	if err := tbl.Insert(storage.Row{datum.NewInt(9), datum.NewFloat(0), datum.NewString("new")}); err != nil {
		panic(err)
	}
	tbl.Delete(3)
	n := &Node{db: db, txns: map[txn.TS]*txnState{5: {epoch: 1, undo: []undoRec{
		{table: "kinds", key: 1, oldRow: old1},
		{table: "kinds", key: 9},
		{table: "kinds", key: 3, oldRow: old3},
	}}}}
	return &groupRuntime{n: n, pendings: map[txn.TS]*pendingPrepare{
		7: {epoch: 2, redo: []repl.Mutation{
			{Table: "kinds", Key: 2, Row: []datum.D{datum.NewInt(2), datum.NewFloat(-1), datum.NewString("p")}},
			{Table: "kinds", Key: 4},
		}},
		8: {},
	}}
}

// decodeSnapshot runs both decoders over an image, discarding what they
// read.
func decodeSnapshot(img []byte) error {
	r, err := openSnapshot(img)
	if err == nil {
		err = readSnapPendings(&r, make(map[txn.TS]*pendingPrepare))
	}
	if err == nil {
		err = readSnapTables(&r, func(string, storage.Row) {})
	}
	return err
}

// allocated returns the bytes fn allocates, the least of three runs when
// the first is over limit (other goroutines allocate too).
func allocated(fn func(), limit uint64) uint64 {
	best := uint64(math.MaxUint64)
	for i := 0; i < 3 && best > limit; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// FuzzGroupSnapshotDecode feeds the decoder arbitrary payloads, under a
// valid checksum so the parser behind it is reached. Decoding must never
// panic or allocate more than a small multiple of its input, and once a
// payload decodes, every truncation and every single bit flip of its
// image must be rejected.
func FuzzGroupSnapshotDecode(f *testing.F) {
	img := snapshotFixture().Snapshot()
	if err := decodeSnapshot(img); err != nil {
		f.Fatalf("fixture image does not decode: %v", err)
	}
	f.Add(img[snapHeader:])
	f.Add([]byte{0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		decodeSnapshot(payload) // raw bytes: stopped by the checksum, or not
		img := binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(payload))
		img = append(img, payload...)
		var err error
		limit := 64*uint64(len(img)) + 16<<10
		if got := allocated(func() { err = decodeSnapshot(img) }, limit); got > limit {
			t.Fatalf("decoding %d bytes allocated %d", len(img), got)
		}
		if err != nil {
			return
		}
		for n := range img {
			if decodeSnapshot(img[:n]) == nil {
				t.Fatalf("image truncated to %d of %d bytes decodes", n, len(img))
			}
		}
		step := max(1, len(img)*8/2048)
		for bit := 0; bit < len(img)*8; bit += step {
			img[bit/8] ^= 1 << (bit % 8)
			if decodeSnapshot(img) == nil {
				t.Fatalf("image with bit %d flipped decodes", bit)
			}
			img[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// TestGroupSnapshotByteBudget pins what a compaction snapshot costs: one
// buffer sized from the previous image, so a 25k-row YCSB table allocates
// at most 1.25 × its image length.
func TestGroupSnapshotByteBudget(t *testing.T) {
	db := storage.NewDatabase()
	tbl := db.MustCreateTable(&storage.TableSchema{
		Name: "usertable",
		Columns: []storage.Column{
			{Name: "ycsb_key", Type: storage.IntCol},
			{Name: "field0", Type: storage.StringCol},
		},
		Key: "ycsb_key",
	})
	for k := int64(0); k < 25000; k++ {
		if err := tbl.Insert(storage.Row{datum.NewInt(k), datum.NewString("v")}); err != nil {
			t.Fatal(err)
		}
	}
	gr := &groupRuntime{
		n:        &Node{db: db, txns: make(map[txn.TS]*txnState)},
		pendings: make(map[txn.TS]*pendingPrepare),
	}
	img := gr.Snapshot() // sizes the next one
	limit := uint64(len(img)) * 5 / 4
	got := allocated(func() { img = gr.Snapshot() }, limit)
	t.Logf("image %d bytes (%.1f per row), snapshot allocated %d", len(img), float64(len(img))/25000, got)
	if got > limit {
		t.Fatalf("snapshot of a %d-byte image allocated %d bytes, want <= %d", len(img), got, limit)
	}
}

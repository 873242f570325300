package storage

import (
	"math/rand"
	"testing"
	"testing/quick"

	"schism/internal/datum"
)

func accountSchema() *TableSchema {
	return &TableSchema{
		Name: "account",
		Columns: []Column{
			{Name: "id", Type: IntCol},
			{Name: "name", Type: StringCol},
			{Name: "bal", Type: FloatCol},
		},
		Key:     "id",
		Indexes: []string{"name"},
	}
}

func row(id int64, name string, bal float64) Row {
	return Row{datum.NewInt(id), datum.NewString(name), datum.NewFloat(bal)}
}

func TestTableCRUD(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable(accountSchema())
	if err := tbl.Insert(row(1, "carlo", 80000)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(row(1, "dup", 0)); err == nil {
		t.Fatal("duplicate key accepted")
	}
	r, ok := tbl.Get(1)
	if !ok || r[1].S != "carlo" {
		t.Fatalf("Get: %v %v", r, ok)
	}
	// Returned rows are copies.
	r[1] = datum.NewString("mutated")
	if r2, _ := tbl.Get(1); r2[1].S != "carlo" {
		t.Fatal("Get returned aliased row")
	}
	if err := tbl.Update(1, row(1, "carlo", 79000)); err != nil {
		t.Fatal(err)
	}
	if r, _ := tbl.Get(1); r[2].F != 79000 {
		t.Fatal("update lost")
	}
	if err := tbl.Update(1, row(2, "carlo", 0)); err == nil {
		t.Fatal("key change accepted")
	}
	if err := tbl.Update(99, row(99, "x", 0)); err == nil {
		t.Fatal("update of missing row accepted")
	}
	if !tbl.Delete(1) || tbl.Delete(1) {
		t.Fatal("delete semantics")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestSchemaValidation(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateTable(&TableSchema{
		Name:    "bad",
		Columns: []Column{{Name: "a", Type: StringCol}},
		Key:     "a",
	}); err == nil {
		t.Error("string key accepted")
	}
	if _, err := db.CreateTable(&TableSchema{
		Name:    "bad2",
		Columns: []Column{{Name: "a", Type: IntCol}, {Name: "a", Type: IntCol}},
		Key:     "a",
	}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := db.CreateTable(&TableSchema{
		Name:    "bad3",
		Columns: []Column{{Name: "a", Type: IntCol}},
		Key:     "a",
		Indexes: []string{"nosuch"},
	}); err == nil {
		t.Error("index on missing column accepted")
	}
	db.MustCreateTable(accountSchema())
	if _, err := db.CreateTable(accountSchema()); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestScanOrder(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable(accountSchema())
	perm := rand.New(rand.NewSource(1)).Perm(1000)
	for _, k := range perm {
		if err := tbl.Insert(row(int64(k), "u", float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	prev := int64(-1)
	count := 0
	tbl.ScanAll(func(key int64, r Row) bool {
		if key <= prev {
			t.Fatalf("out of order: %d after %d", key, prev)
		}
		prev = key
		count++
		return true
	})
	if count != 1000 {
		t.Fatalf("scanned %d, want 1000", count)
	}
	// Bounded scan.
	var got []int64
	tbl.Scan(100, 109, func(key int64, r Row) bool {
		got = append(got, key)
		return true
	})
	if len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Fatalf("range scan: %v", got)
	}
	// Early stop.
	n := 0
	tbl.Scan(0, 999, func(int64, Row) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop: %d", n)
	}
}

func TestSecondaryIndex(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable(accountSchema())
	for i := int64(0); i < 100; i++ {
		name := "alice"
		if i%2 == 1 {
			name = "bob"
		}
		if err := tbl.Insert(row(i, name, 0)); err != nil {
			t.Fatal(err)
		}
	}
	keys := tbl.LookupIndex("name", datum.NewString("alice"))
	if len(keys) != 50 {
		t.Fatalf("index found %d, want 50", len(keys))
	}
	for _, k := range keys {
		if k%2 != 0 {
			t.Fatalf("wrong key %d for alice", k)
		}
	}
	// Update moves index entries.
	if err := tbl.Update(0, row(0, "bob", 0)); err != nil {
		t.Fatal(err)
	}
	if got := len(tbl.LookupIndex("name", datum.NewString("alice"))); got != 49 {
		t.Fatalf("after update: %d", got)
	}
	// Delete removes index entries.
	tbl.Delete(1)
	if got := len(tbl.LookupIndex("name", datum.NewString("bob"))); got != 50 {
		t.Fatalf("after delete: %d", got)
	}
	if tbl.LookupIndex("nosuch", datum.NewString("x")) != nil {
		t.Error("lookup on unindexed column should be nil")
	}
	if !tbl.HasIndex("name") || tbl.HasIndex("bal") {
		t.Error("HasIndex misreports")
	}
}

func TestRowView(t *testing.T) {
	s := accountSchema()
	if err := s.init(); err != nil {
		t.Fatal(err)
	}
	v := RowView{Schema: s, Data: row(1, "x", 2.5)}
	if v.Get("bal").F != 2.5 {
		t.Error("Get bal")
	}
	if !v.Get("missing").IsNull() {
		t.Error("missing column should be NULL")
	}
}

func TestDatabaseClone(t *testing.T) {
	db := NewDatabase()
	tbl := db.MustCreateTable(accountSchema())
	for i := int64(0); i < 50; i++ {
		if err := tbl.Insert(row(i, "u", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	clone := db.Clone()
	// Mutating the clone leaves the original untouched.
	clone.Table("account").Delete(0)
	if _, ok := db.Table("account").Get(0); !ok {
		t.Fatal("clone aliases original")
	}
	if clone.NumTuples() != 49 || db.NumTuples() != 50 {
		t.Fatalf("tuples: %d/%d", clone.NumTuples(), db.NumTuples())
	}
	if db.SizeBytes() <= 0 {
		t.Error("SizeBytes")
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "account" {
		t.Errorf("TableNames: %v", got)
	}
}

// Property: the B+tree agrees with a reference map under random
// insert/update/delete workloads, and iterates in sorted order.
func TestBTreeMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tree := newBTree(1)
		ref := make(map[int64]float64)
		for op := 0; op < 3000; op++ {
			k := rng.Int63n(500)
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Float64()
				tree.set(k, Row{datum.NewFloat(v)})
				ref[k] = v
			case 2:
				treeHad := tree.delete(k)
				_, refHad := ref[k]
				if treeHad != refHad {
					return false
				}
				delete(ref, k)
			}
		}
		if tree.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			l, i, ok := tree.find(k)
			if !ok || tree.col(l, i, 0).F != v {
				return false
			}
		}
		// Order check.
		prev := int64(minInt64)
		okOrder := true
		tree.runs(minInt64, maxInt64, func(l *leaf, from, to int) bool {
			for _, k := range l.keys[from:to] {
				if k <= prev {
					okOrder = false
				}
				prev = k
			}
			return okOrder
		})
		return okOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeLargeSequential(t *testing.T) {
	tree := newBTree(1)
	const n = 50000
	for i := int64(0); i < n; i++ {
		tree.set(i, Row{datum.NewInt(i)})
	}
	if tree.Len() != n {
		t.Fatalf("Len = %d", tree.Len())
	}
	for _, k := range []int64{0, 1, n / 2, n - 1} {
		if _, _, ok := tree.find(k); !ok {
			t.Fatalf("missing key %d", k)
		}
	}
	if _, _, ok := tree.find(n); ok {
		t.Fatal("phantom key")
	}
	// Ascending inserts (order ids) fill only the rightmost leaf, so every
	// split's left half is final: it must not keep the arrays it overflowed.
	slots := 0
	for l := tree.findLeaf(minInt64); l != nil; l = l.next {
		slots += max(cap(l.keys), cap(l.slab)/tree.stride)
	}
	if slots > n+n/4 {
		t.Fatalf("leaves reserve %d slots for %d sequential keys", slots, n)
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	tree := newBTree(1)
	r := Row{datum.NewInt(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.set(int64(i), r)
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	tree := newBTree(1)
	for i := int64(0); i < 100000; i++ {
		tree.set(i, Row{datum.NewInt(i)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.find(int64(i) % 100000)
	}
}

package workload

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	a := TupleID{Table: "a", Key: 1}
	b := TupleID{Table: "b", Key: 1}
	a2 := TupleID{Table: "a", Key: 2}
	if d := in.Intern(a); d != 0 {
		t.Fatalf("first id = %d, want 0", d)
	}
	if d := in.Intern(b); d != 1 {
		t.Fatalf("second id = %d, want 1", d)
	}
	if d := in.Intern(a); d != 0 {
		t.Fatalf("re-intern = %d, want 0", d)
	}
	if d := in.Intern(a2); d != 2 {
		t.Fatalf("third id = %d, want 2", d)
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3", in.Len())
	}
	if got := in.TupleOf(1); got != b {
		t.Fatalf("TupleOf(1) = %v, want %v", got, b)
	}
	if d, ok := in.Lookup(b); !ok || d != 1 {
		t.Fatalf("Lookup(b) = %d,%v", d, ok)
	}
	if _, ok := in.Lookup(TupleID{Table: "c", Key: 9}); ok {
		t.Fatal("Lookup of unseen tuple succeeded")
	}
	want := []TupleID{a, b, a2}
	if !reflect.DeepEqual(in.Tuples(), want) {
		t.Fatalf("Tuples = %v, want %v", in.Tuples(), want)
	}
}

func TestCompactTraceRoundTrip(t *testing.T) {
	tid := func(k int64) TupleID { return TupleID{Table: "t", Key: k} }
	tr := NewTrace()
	tr.Add([]Access{{Tuple: tid(5), Write: true}, {Tuple: tid(7)}})
	tr.Add([]Access{{Tuple: tid(7), Write: true}, {Tuple: tid(5)}, {Tuple: tid(5), Write: true}})
	c := CompactTrace(tr)
	if c.NumTxns() != 2 || c.NumTuples() != 2 {
		t.Fatalf("NumTxns=%d NumTuples=%d", c.NumTxns(), c.NumTuples())
	}
	for ti, txn := range tr.Txns {
		packed := c.Txn(ti)
		if len(packed) != len(txn.Accesses) {
			t.Fatalf("txn %d: %d packed accesses, want %d", ti, len(packed), len(txn.Accesses))
		}
		for k, e := range packed {
			d := int32(e &^ WriteBit)
			if got := c.In.TupleOf(d); got != txn.Accesses[k].Tuple {
				t.Errorf("txn %d access %d: tuple %v, want %v", ti, k, got, txn.Accesses[k].Tuple)
			}
			if w := e&WriteBit != 0; w != txn.Accesses[k].Write {
				t.Errorf("txn %d access %d: write=%v, want %v", ti, k, w, txn.Accesses[k].Write)
			}
		}
	}
}

// refStats is the map-keyed form of DenseStats that referenceStats
// fills.
type refStats struct {
	reads, writes map[TupleID]int
}

// referenceStats counts with one map per transaction, kept as the
// semantic reference for the dense implementation.
func referenceStats(tr *Trace) *refStats {
	s := &refStats{reads: make(map[TupleID]int), writes: make(map[TupleID]int)}
	for _, t := range tr.Txns {
		reads := make(map[TupleID]bool)
		writes := make(map[TupleID]bool)
		for _, a := range t.Accesses {
			if a.Write {
				writes[a.Tuple] = true
			} else {
				reads[a.Tuple] = true
			}
		}
		for id := range reads {
			s.reads[id]++
		}
		for id := range writes {
			s.writes[id]++
		}
	}
	return s
}

func TestDenseStatsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tables := []string{"t", "u", "v"}
	for trial := 0; trial < 20; trial++ {
		tr := NewTrace()
		for i := 0; i < 50; i++ {
			var acc []Access
			for j := 0; j < 1+rng.Intn(8); j++ {
				acc = append(acc, Access{
					Tuple: TupleID{Table: tables[rng.Intn(len(tables))], Key: int64(rng.Intn(20))},
					Write: rng.Intn(3) == 0,
				})
			}
			tr.Add(acc)
		}
		c := CompactTrace(tr)
		got, want := c.Stats(), referenceStats(tr)
		for d, id := range c.In.Tuples() {
			if int(got.Reads[d]) != want.reads[id] || int(got.Writes[d]) != want.writes[id] {
				t.Fatalf("tuple %v: %d reads %d writes, want %d/%d",
					id, got.Reads[d], got.Writes[d], want.reads[id], want.writes[id])
			}
		}
	}
}

// TestCompactTraceMemo pins who shares a trace's interned form: a second
// call returns the first call's Compact, growing the trace drops it, and
// no derived trace inherits its parent's.
func TestCompactTraceMemo(t *testing.T) {
	tid := func(k int64) TupleID { return TupleID{Table: "t", Key: k} }
	tr := NewTrace()
	for i := int64(0); i < 40; i++ {
		tr.Add([]Access{{Tuple: tid(i % 7), Write: i%3 == 0}, {Tuple: tid(i % 5)}, {Tuple: tid(100 + i)}})
	}
	c := CompactTrace(tr)
	if CompactTrace(tr) != c {
		t.Fatal("second CompactTrace returned a different Compact")
	}

	train, test := tr.Split(0.5)
	derived := map[string]*Trace{
		"Split train": train,
		"Split test":  test,
	}
	for name, d := range map[string]*Compact{
		"SampleTxns(0.5)": SampleTxns(c, 0.5, rand.New(rand.NewSource(1))),
		"SampleTxns(0.2)": SampleTxns(c, 0.2, rand.New(rand.NewSource(2))),
		"SampleTxns(0.9)": SampleTxns(c, 0.9, rand.New(rand.NewSource(3))),
	} {
		// A sample is a new Compact, in a trace of its own.
		if d == c {
			t.Fatalf("%s returned its input", name)
		}
		derived[name] = expand(d)
	}
	for name, d := range derived {
		if d == tr {
			t.Fatalf("%s returned its input", name)
		}
		if d.compact.Load() != nil {
			t.Errorf("%s output carries a memoised Compact", name)
		}
		dc := CompactTrace(d)
		if dc == c || dc.NumTxns() != d.Len() {
			t.Errorf("%s: CompactTrace has %d txns for a trace of %d (parent's: %v)", name, dc.NumTxns(), d.Len(), dc == c)
		}
	}
	if CompactTrace(tr) != c {
		t.Error("deriving traces dropped the parent's Compact")
	}

	tr.Add([]Access{{Tuple: tid(999)}})
	grown := CompactTrace(tr)
	if grown == c {
		t.Fatal("CompactTrace after Add returned the stale Compact")
	}
	if grown.NumTxns() != tr.Len() {
		t.Fatalf("CompactTrace after Add has %d txns, want %d", grown.NumTxns(), tr.Len())
	}
	if _, ok := grown.In.Lookup(tid(999)); !ok {
		t.Error("CompactTrace after Add misses the added tuple")
	}
	// An append that bypasses Add is caught by the length check.
	tr.Txns = append(tr.Txns, &Txn{ID: tr.Len(), Accesses: []Access{{Tuple: tid(1000)}}})
	if c := CompactTrace(tr); c == grown || c.NumTxns() != tr.Len() {
		t.Errorf("CompactTrace after a direct append: stale=%v, %d txns, want %d", c == grown, c.NumTxns(), tr.Len())
	}
}

// TestInternerOfLazyIndex checks an interner built from its id → tuple
// table: ids answer without the reverse maps, and the maps, built on the
// first Lookup, agree with them and accept new tuples.
func TestInternerOfLazyIndex(t *testing.T) {
	tuples := []TupleID{{Table: "a", Key: 3}, {Table: "b", Key: 3}, {Table: "a", Key: 1}}
	in := InternerOf(tuples)
	if in.Len() != 3 || in.TupleOf(1) != tuples[1] {
		t.Fatalf("Len=%d TupleOf(1)=%v", in.Len(), in.TupleOf(1))
	}
	if in.tables != nil {
		t.Fatal("reverse maps built before anyone asked for an id")
	}
	for d, id := range tuples {
		if got, ok := in.Lookup(id); !ok || got != int32(d) {
			t.Errorf("Lookup(%v) = %d,%v, want %d", id, got, ok, d)
		}
	}
	if _, ok := in.Lookup(TupleID{Table: "c", Key: 3}); ok {
		t.Error("Lookup found a tuple never interned")
	}
	if d := in.Intern(TupleID{Table: "c", Key: 3}); d != 3 {
		t.Errorf("Intern of a new tuple = %d, want 3", d)
	}
	if d := in.Intern(tuples[2]); d != 2 {
		t.Errorf("Intern of tuple 2 = %d", d)
	}
}

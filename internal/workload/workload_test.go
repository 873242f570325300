package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func tid(k int64) TupleID { return TupleID{Table: "t", Key: k} }

func TestTxnSets(t *testing.T) {
	tr := NewTrace()
	txn := tr.Add([]Access{
		{Tuple: tid(1)},
		{Tuple: tid(2), Write: true},
		{Tuple: tid(1)}, // duplicate read
		{Tuple: tid(2), Write: true},
		{Tuple: tid(3)},
	})
	if got := len(txn.Tuples()); got != 3 {
		t.Errorf("Tuples = %d distinct, want 3", got)
	}
	if txn.ReadOnly() {
		t.Error("txn has a write; ReadOnly must be false")
	}
}

func TestSplit(t *testing.T) {
	tr := NewTrace()
	for i := int64(0); i < 10; i++ {
		tr.Add([]Access{{Tuple: tid(i)}})
	}
	train, test := tr.Split(0.7)
	if train.Len() != 7 || test.Len() != 3 {
		t.Fatalf("split = %d/%d, want 7/3", train.Len(), test.Len())
	}
	train, test = tr.Split(1.5)
	if train.Len() != 10 || test.Len() != 0 {
		t.Fatal("split should clamp trainFrac to 1")
	}
}

func TestComputeStats(t *testing.T) {
	tr := NewTrace()
	tr.Add([]Access{{Tuple: tid(1)}, {Tuple: tid(1)}})              // read x2 counts once
	tr.Add([]Access{{Tuple: tid(1), Write: true}, {Tuple: tid(2)}}) // write 1, read 2
	c := CompactTrace(tr)
	s := c.Stats()
	d1, _ := c.In.Lookup(tid(1))
	d2, _ := c.In.Lookup(tid(2))
	if s.Reads[d1] != 1 || s.Writes[d1] != 1 {
		t.Errorf("tuple 1 stats = %d reads %d writes, want 1/1", s.Reads[d1], s.Writes[d1])
	}
	if s.Reads[d2]+s.Writes[d2] != 1 {
		t.Errorf("tuple 2 accesses = %d, want 1", s.Reads[d2]+s.Writes[d2])
	}
	if got := len(s.Reads); got != 2 {
		t.Errorf("distinct tuples = %d, want 2", got)
	}
}

func TestSampleTxnsRate(t *testing.T) {
	tr := NewTrace()
	for i := int64(0); i < 1000; i++ {
		tr.Add([]Access{{Tuple: tid(i)}})
	}
	rng := rand.New(rand.NewSource(1))
	s := SampleTxns(CompactTrace(tr), 0.3, rng)
	if s.NumTxns() < 200 || s.NumTxns() > 400 {
		t.Errorf("sampled %d of 1000 at rate 0.3", s.NumTxns())
	}
	if SampleTxns(CompactTrace(tr), 1.0, rng).NumTxns() != 1000 {
		t.Error("rate 1.0 must keep everything")
	}
}

// Property: Stats computed after txn sampling never exceed original counts.
func TestSamplingMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTrace()
		for i := 0; i < 200; i++ {
			var acc []Access
			for j := 0; j < 1+rng.Intn(4); j++ {
				acc = append(acc, Access{Tuple: tid(int64(rng.Intn(50))), Write: rng.Intn(2) == 0})
			}
			tr.Add(acc)
		}
		full := referenceStats(tr)
		sampled := referenceStats(expand(SampleTxns(CompactTrace(tr), 0.5, rng)))
		for id, n := range sampled.reads {
			if n > full.reads[id] {
				return false
			}
		}
		for id, n := range sampled.writes {
			if n > full.writes[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitTrainAddKeepsTest appends to the train half of a split. The
// halves share the parent's transactions, so an append that ran into the
// parent's backing array would overwrite test's first transaction and
// the parent's own, and leave the parent's interned form stale.
func TestSplitTrainAddKeepsTest(t *testing.T) {
	tr := NewTrace()
	for i := int64(0); i < 10; i++ {
		tr.Add([]Access{{Tuple: tid(i)}})
	}
	c := CompactTrace(tr)
	train, test := tr.Split(0.5)
	first, parentNth := test.Txns[0], tr.Txns[5]
	train.Add([]Access{{Tuple: tid(99), Write: true}})
	if test.Txns[0] != first || tr.Txns[5] != parentNth {
		t.Fatal("train.Add overwrote a transaction of the test half and the parent")
	}
	if got := CompactTrace(tr); got != c || got.NumTuples() != 10 {
		t.Fatalf("parent's interned form changed under train.Add: %d tuples", got.NumTuples())
	}
	if train.Len() != 6 || train.Txns[5].Accesses[0].Tuple != tid(99) {
		t.Fatalf("train after Add has %d txns", train.Len())
	}
}

// TestSplitNaN splits at a NaN fraction, which clamps to 0 instead of
// slicing at the minimum int.
func TestSplitNaN(t *testing.T) {
	tr := NewTrace()
	for i := int64(0); i < 10; i++ {
		tr.Add([]Access{{Tuple: tid(i)}})
	}
	train, test := tr.Split(math.NaN())
	if train.Len() != 0 || test.Len() != 10 {
		t.Fatalf("Split(NaN) = %d/%d, want 0/10", train.Len(), test.Len())
	}
}

// TestCompactOnlyTrace pins what a trace made from its interned form
// answers: Len and CompactTrace from the Compact, and a panic from Add
// and Split, which would otherwise work on its empty Txns and silently
// drop the dense transactions.
func TestCompactOnlyTrace(t *testing.T) {
	src := NewTrace()
	src.Add([]Access{{Tuple: tid(1)}, {Tuple: tid(2), Write: true}})
	src.Add([]Access{{Tuple: tid(2)}})
	c := CompactTrace(src)
	tr := FromCompact(c)
	if tr.Len() != 2 || CompactTrace(tr) != c {
		t.Fatalf("Len = %d, CompactTrace shared = %v", tr.Len(), CompactTrace(tr) == c)
	}
	for name, fn := range map[string]func(){
		"Add":   func() { tr.Add([]Access{{Tuple: tid(3)}}) },
		"Split": func() { tr.Split(0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a compact-only trace did not panic", name)
				}
			}()
			fn()
		}()
	}
	if tr.Len() != 2 {
		t.Fatalf("Len after the refused calls = %d, want 2", tr.Len())
	}
}

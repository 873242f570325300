package live

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"schism/internal/partition"
	"schism/internal/workload"
)

func acc(key int64, write bool) workload.Access {
	return workload.Access{Tuple: workload.TupleID{Table: "t", Key: key}, Write: write}
}

// expandTrace rebuilds the transactions of a trace's interned form: a
// compact-only snapshot's as a plain trace.
func expandTrace(tr *workload.Trace) *workload.Trace {
	c := workload.CompactTrace(tr)
	out := workload.NewTrace()
	for ti := 0; ti < c.NumTxns(); ti++ {
		accs := make([]workload.Access, 0, len(c.Txn(ti)))
		for _, e := range c.Txn(ti) {
			accs = append(accs, workload.Access{Tuple: c.In.TupleOf(int32(e &^ workload.WriteBit)), Write: e&workload.WriteBit != 0})
		}
		out.Add(accs)
	}
	return out
}

// traceKeys flattens a trace into per-txn (key, write) strings.
func traceKeys(tr *workload.Trace) []string {
	var out []string
	for _, t := range expandTrace(tr).Txns {
		s := ""
		for _, a := range t.Accesses {
			s += fmt.Sprintf("%d:%v,", a.Tuple.Key, a.Write)
		}
		out = append(out, s)
	}
	return out
}

func TestWindowRingEviction(t *testing.T) {
	w := NewWindow(WindowConfig{Capacity: 3})
	for k := int64(0); k < 5; k++ {
		w.Record([]workload.Access{acc(k, false)})
	}
	if w.Len() != 3 {
		t.Fatalf("Len = %d, want 3", w.Len())
	}
	if w.Total() != 5 {
		t.Fatalf("Total = %d, want 5", w.Total())
	}
	got := traceKeys(w.Snapshot())
	want := []string{"2:false,", "3:false,", "4:false,"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
}

func TestWindowSnapshotPreservesWritesAndOrder(t *testing.T) {
	w := NewWindow(WindowConfig{Capacity: 8})
	w.Record([]workload.Access{acc(7, false), acc(9, true)})
	w.Record([]workload.Access{acc(9, false)})
	got := traceKeys(w.Snapshot())
	want := []string{"7:false,9:true,", "9:false,"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
}

func TestWindowSnapshotDeterministic(t *testing.T) {
	run := func() []string {
		w := NewWindow(WindowConfig{Capacity: 16})
		for i := 0; i < 40; i++ {
			w.Record([]workload.Access{acc(int64(i%7), i%3 == 0), acc(int64(i%5), false)})
		}
		return traceKeys(w.Snapshot())
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n%v\n%v", a, b)
	}
}

// TestWindowSnapshotSharedBacking pins the snapshot's allocation shape.
// A constant number of objects, whatever the window's length: the packed
// accesses, their offsets and the tuple table each come from one array.
// And a byte budget: a snapshot is compact-only, so it pays 4 B per
// access, 4 B per transaction and a 24 B TupleID per distinct tuple —
// never a 32 B workload.Access per access or a Txn per transaction.
func TestWindowSnapshotSharedBacking(t *testing.T) {
	w := NewWindow(WindowConfig{Capacity: 256})
	for i := 0; i < 300; i++ {
		w.Record([]workload.Access{acc(int64(i), false), acc(int64(i+1), true), acc(int64(i%9), false)})
	}
	snap := w.Snapshot()
	c := workload.CompactTrace(snap)
	if allocs := testing.AllocsPerRun(20, func() { w.Snapshot() }); allocs > 24 {
		t.Errorf("Snapshot of %d txns made %.0f allocations, want <= 24", snap.Len(), allocs)
	}
	// Size classes round each array up by at most an eighth.
	budget := (4*len(c.Accs)+4*len(c.Off)+24*c.NumTuples())*9/8 + 1024
	bytes, _ := allocated(func() { w.Snapshot() })
	t.Logf("%d B for %d accesses, %d txns, %d tuples (%.1f B/access)",
		bytes, len(c.Accs), snap.Len(), c.NumTuples(), float64(bytes)/float64(len(c.Accs)))
	if bytes > uint64(budget) {
		t.Errorf("Snapshot allocated %d B for %d accesses, budget %d B", bytes, len(c.Accs), budget)
	}
}

// allocated runs fn once and returns the bytes and objects it allocated
// (AllocsPerRun's warm-up call would hide anything fn does only the first
// time).
func allocated(fn func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// internedFresh interns the snapshot's transactions afresh: the reference
// a snapshot's Compact must equal.
func internedFresh(tr *workload.Trace) *workload.Compact {
	return workload.CompactTrace(expandTrace(tr))
}

// checkCompactEqual compares two interned forms of the same transactions.
func checkCompactEqual(t *testing.T, name string, got, want *workload.Compact) {
	t.Helper()
	if !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Accs, want.Accs) {
		t.Fatalf("%s: packed accesses differ from interning the trace:\n got %v %v\nwant %v %v", name, got.Off, got.Accs, want.Off, want.Accs)
	}
	if !slices.Equal(got.In.Tuples(), want.In.Tuples()) {
		t.Fatalf("%s: tuple table differs from interning the trace:\n got %v\nwant %v", name, got.In.Tuples(), want.In.Tuples())
	}
}

// TestSnapshotCompactMatchesIntern checks that the interned form a
// snapshot carries is what interning its transactions yields — ids in
// first-appearance order, the same packed accesses, the same tuple table
// — for empty, partly filled and wrapped windows, and that its interner's lazily built reverse maps answer Lookup for
// every tuple when the first callers race.
func TestSnapshotCompactMatchesIntern(t *testing.T) {
	tables := []string{"t", "u", "v"}
	for _, records := range []int{0, 1, 20, 64, 65, 700} {
		name := fmt.Sprintf("%d records", records)
		rng := rand.New(rand.NewSource(int64(records) + 1))
		w := NewWindow(WindowConfig{Capacity: 64})
		for i := 0; i < records; i++ {
			accs := make([]workload.Access, 1+rng.Intn(6))
			for j := range accs {
				// A small hot set (so transactions repeat) and a tail of
				// fresh keys (so the window reinterns along the way).
				key := int64(rng.Intn(6))
				if rng.Intn(3) == 0 {
					key = int64(1000 + i)
				}
				accs[j] = workload.Access{
					Tuple: workload.TupleID{Table: tables[rng.Intn(len(tables))], Key: key},
					Write: rng.Intn(3) == 0,
				}
			}
			w.Record(accs)
		}
		snap := w.Snapshot()
		if want := min(records, 64); snap.Len() != want {
			t.Fatalf("%s: snapshot has %d txns, want %d", name, snap.Len(), want)
		}
		// MemStats are process-wide and the runtime allocates now and
		// then on its own, so a fresh snapshot gets three tries to show
		// that CompactTrace hands back its form without computing one.
		var got *workload.Compact
		bytes := uint64(1)
		for try := 0; try < 3 && bytes != 0; try++ {
			snap = w.Snapshot()
			bytes, _ = allocated(func() { got = workload.CompactTrace(snap) })
		}
		if records > 0 && bytes != 0 {
			t.Fatalf("%s: CompactTrace of a snapshot allocated %d B: its interned form was not attached", name, bytes)
		}
		want := internedFresh(snap)
		if got == want {
			t.Fatalf("%s: reference shares the snapshot's memo", name)
		}
		checkCompactEqual(t, name, got, want)

		// First use of the reverse maps, from 8 goroutines at once.
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for d, id := range got.In.Tuples() {
					if ld, ok := got.In.Lookup(id); !ok || ld != int32(d) {
						t.Errorf("%s: Lookup(%v) = %d,%v, want %d", name, id, ld, ok, d)
						return
					}
				}
				if _, ok := got.In.Lookup(workload.TupleID{Table: "t", Key: -1}); ok {
					t.Errorf("%s: Lookup found a tuple the window never saw", name)
				}
			}()
		}
		wg.Wait()
	}
}

// internerLen reads the size of the window's interner.
func internerLen(w *Window) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.in.Len()
}

// TestWindowInternerBounded pins the capture window's memory to its
// contents: under a stream of fresh keys the interner must hold at most
// twice the tuples the window references (it used to keep every tuple
// ever recorded), and reinterning must not change what a snapshot says.
func TestWindowInternerBounded(t *testing.T) {
	const capacity = 64
	txn := func(i int) []workload.Access {
		return []workload.Access{acc(int64(i%5), false), acc(int64(1000+2*i), true), acc(int64(1001+2*i), false)}
	}
	w := NewWindow(WindowConfig{Capacity: capacity})
	peak, shrunk := 0, 0
	for i := 0; i < 12*capacity; i++ {
		before := internerLen(w)
		w.Record(txn(i))
		n := internerLen(w)
		if n < before {
			shrunk++
		}
		distinct := map[workload.TupleID]bool{}
		for j := max(0, i-capacity+1); j <= i; j++ {
			for _, a := range txn(j) {
				distinct[a.Tuple] = true
			}
		}
		if i >= capacity && n > 2*len(distinct) {
			t.Fatalf("after %d records the interner holds %d tuples, the window %d", i+1, n, len(distinct))
		}
		peak = max(peak, n)
	}
	// Amortised: a reintern is due only after as many new tuples as
	// the last one kept (~2 per transaction here, ~133 kept).
	if shrunk == 0 || shrunk > 12 {
		t.Errorf("interner shrank %d times over %d records (peak %d)", shrunk, 12*capacity, peak)
	}

	before := w.Snapshot()
	w.mu.Lock()
	w.reintern()
	w.mu.Unlock()
	after := w.Snapshot()
	if !reflect.DeepEqual(traceKeys(before), traceKeys(after)) {
		t.Fatalf("snapshot changed across a reintern:\n%v\n%v", traceKeys(before), traceKeys(after))
	}
	checkCompactEqual(t, "across a reintern", workload.CompactTrace(after), workload.CompactTrace(before))

	// Reinterning mid-stream, as often as every 17 records, must not
	// change what the window reports.
	plain := NewWindow(WindowConfig{Capacity: capacity})
	forced := NewWindow(WindowConfig{Capacity: capacity})
	for i := 0; i < 3*capacity; i++ {
		accs := []workload.Access{acc(int64(i%4), true), acc(int64(i%3), false), acc(int64(5000+i/8), false)}
		plain.Record(accs)
		forced.Record(accs)
		if i%17 == 0 {
			forced.mu.Lock()
			forced.reintern()
			forced.mu.Unlock()
		}
	}
	if a, b := traceKeys(plain.Snapshot()), traceKeys(forced.Snapshot()); !reflect.DeepEqual(a, b) {
		t.Fatalf("reinterning mid-stream changed the snapshot:\n%v\n%v", a, b)
	}
}

// TestWindowRecordReusesSlots pins the capture path's allocation shape:
// once the ring is full, recording a transaction over known tuples packs
// it into the evicted slot's array and allocates nothing.
func TestWindowRecordReusesSlots(t *testing.T) {
	w := NewWindow(WindowConfig{Capacity: 32})
	i := 0
	record := func() {
		w.Record([]workload.Access{acc(int64(i%11), false), acc(int64(i%7), true), acc(int64(i%13), false)})
		i++
	}
	for i < 3*32 {
		record()
	}
	accs := []workload.Access{acc(1, false), acc(2, true), acc(3, false)}
	if allocs := testing.AllocsPerRun(200, func() { w.Record(accs) }); allocs != 0 {
		t.Errorf("Record on a full window made %.1f allocations, want 0", allocs)
	}
	got := traceKeys(w.Snapshot())
	if len(got) != 32 || got[31] != "1:false,2:true,3:false," {
		t.Fatalf("snapshot after slot reuse = %v", got)
	}
}

// TestScoreWindowHashesNoTuples pins "a cycle does not hash tuples" where
// it can fail: scoring a fresh snapshot allocates four bytes per tuple to
// remember its located set, the per-partition load, the evaluator's two
// partition lists and an index of the few distinct sets — no slice header
// per tuple, no second packed array, no TupleID maps.
func TestScoreWindowHashesNoTuples(t *testing.T) {
	const k = 4
	w := NewWindow(WindowConfig{Capacity: 512})
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 600; i++ {
		accs := make([]workload.Access, 8)
		for j := range accs {
			accs[j] = acc(int64(rng.Intn(3000)), rng.Intn(4) == 0)
		}
		w.Record(accs)
	}
	parts := make([][]int, k)
	for p := range parts {
		parts[p] = []int{p}
	}
	locate := func(id workload.TupleID) []int { return parts[id.Key%k] }

	var tuples int
	var bytes, mallocs uint64
	for run := 0; run < 3; run++ {
		snap := w.Snapshot() // fresh each time: a scored trace keeps its form
		var s Score
		b, m := allocated(func() { s = ScoreWindow(snap, k, locate) })
		if s.Txns != 512 {
			t.Fatalf("scored %d txns, want 512", s.Txns)
		}
		tuples = workload.CompactTrace(snap).NumTuples()
		if run == 0 || b < bytes {
			bytes, mallocs = b, m
		}
	}
	// Four bytes per tuple (plus up to an eighth of size-class rounding),
	// load one float per partition; the evaluator's lists, the k distinct
	// sets' index and the closures are the constant.
	budget := uint64(4*tuples*9/8 + 8*k + 1024)
	if bytes > budget || mallocs > 16 {
		t.Errorf("ScoreWindow allocated %d B in %d objects for %d tuples; budget %d B, 16 objects", bytes, mallocs, tuples, budget)
	}
}

// refScoreWindow is ScoreWindow as it was before it stopped keeping a
// replica set per tuple: locate every distinct tuple into a table, then
// evaluate and weigh the loads from it.
func refScoreWindow(tr *workload.Trace, k int, locate LocateFunc) Score {
	c := workload.CompactTrace(tr)
	sets := make([][]int, c.NumTuples())
	for d, id := range c.In.Tuples() {
		sets[d] = locate(id)
	}
	cost := partition.EvaluateAssignmentsCompact(c, sets, nil)
	load := make([]float64, k)
	var total float64
	for _, e := range c.Accs {
		set := sets[e&^workload.WriteBit]
		if len(set) == 0 {
			continue
		}
		share := 1.0 / float64(len(set))
		for _, p := range set {
			if p >= 0 && p < k {
				load[p] += share
				total += share
			}
		}
	}
	imb := 1.0
	if total > 0 {
		mean := total / float64(k)
		for _, l := range load {
			imb = max(imb, l/mean)
		}
	}
	return Score{Txns: cost.Total, Distributed: cost.DistributedFrac(), Imbalance: imb}
}

// TestScoreWindowMatchesReference checks locateAll's set slots against the
// per-tuple table it replaced, bit for bit, with a locate that shares its
// sets, one that returns a fresh slice per call (a distinct slice per
// tuple), and one that leaves tuples unplaced.
func TestScoreWindowMatchesReference(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(4))
	tr := workload.NewTrace()
	for i := 0; i < 3000; i++ {
		accs := make([]workload.Access, 2+rng.Intn(6))
		for j := range accs {
			// Hot keys repeat; the tail keeps tuples fresh.
			key := int64(rng.Intn(50))
			if j > 1 {
				key = int64(100 + 6*i + j)
			}
			accs[j] = acc(key, rng.Intn(3) == 0)
		}
		tr.Add(accs)
	}
	shared := make([][]int, k+2)
	for p := range k {
		shared[p] = []int{p}
	}
	shared[k] = []int{0, 2, 4}
	locates := map[string]LocateFunc{
		"shared": func(id workload.TupleID) []int { return shared[id.Key%int64(len(shared))] },
		"fresh":  func(id workload.TupleID) []int { return []int{int(id.Key % k), int(id.Key%3) + k - 3} },
		"unplaced": func(id workload.TupleID) []int {
			if id.Key%4 == 0 {
				return nil
			}
			return shared[id.Key%k]
		},
	}
	for name, locate := range locates {
		if got, want := ScoreWindow(tr, k, locate), refScoreWindow(tr, k, locate); got != want {
			t.Errorf("%s: ScoreWindow = %+v, reference %+v", name, got, want)
		}
	}
}

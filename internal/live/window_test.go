package live

import (
	"fmt"
	"reflect"
	"testing"

	"schism/internal/workload"
)

func acc(key int64, write bool) workload.Access {
	return workload.Access{Tuple: workload.TupleID{Table: "t", Key: key}, Write: write}
}

// traceKeys flattens a trace into per-txn (key, write) strings.
func traceKeys(tr *workload.Trace) []string {
	var out []string
	for _, t := range tr.Txns {
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

func TestWindowDecayCollapsesStaleRepeats(t *testing.T) {
	// A signature repeated 10 times long ago, then fresher traffic: with
	// decay the stale signature must shrink to far fewer than 10 copies;
	// without decay the snapshot keeps every occurrence.
	build := func(decay float64) *workload.Trace {
		w := NewWindow(WindowConfig{Capacity: 64, Decay: decay})
		for i := 0; i < 10; i++ {
			w.Record([]workload.Access{acc(1, false), acc(2, true)})
		}
		for i := 0; i < 20; i++ {
			w.Record([]workload.Access{acc(100+int64(i), true)})
		}
		return w.Snapshot()
	}
	plain := build(0)
	if plain.Len() != 30 {
		t.Fatalf("no-decay snapshot has %d txns, want 30", plain.Len())
	}
	decayed := build(0.9)
	stale := 0
	for _, tx := range decayed.Txns {
		if tx.Accesses[0].Tuple.Key == 1 {
			stale++
		}
	}
	if stale < 1 || stale >= 5 {
		t.Fatalf("stale signature emitted %d times, want in [1,5)", stale)
	}
	// Fresh singletons must all survive (each is its own signature with
	// weight >= decay^19 rounding to 1).
	if got := decayed.Len() - stale; got != 20 {
		t.Fatalf("fresh txns = %d, want 20", got)
	}
}

func TestWindowSnapshotDeterministic(t *testing.T) {
	run := func() []string {
		w := NewWindow(WindowConfig{Capacity: 16, Decay: 0.8})
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

// TestWindowSnapshotSharedBacking pins the snapshot's allocation shape —
// one Txn per transaction plus a constant (the trace, its growing Txns
// slice and ONE access array for the whole snapshot, not one per
// transaction; decay adds one aggregate per distinct signature and their
// map) — and that transactions carved from that array stay independent:
// appending to one must not reach the next.
func TestWindowSnapshotSharedBacking(t *testing.T) {
	for _, decay := range []float64{0, 0.9} {
		w := NewWindow(WindowConfig{Capacity: 256, Decay: decay})
		for i := 0; i < 300; i++ {
			w.Record([]workload.Access{acc(int64(i), false), acc(int64(i+1), true), acc(int64(i%9), false)})
		}
		n := w.Snapshot().Len()
		limit := n + 24
		if decay > 0 {
			limit += n + 24
		}
		if allocs := testing.AllocsPerRun(20, func() { w.Snapshot() }); allocs > float64(limit) {
			t.Errorf("decay %v: Snapshot of %d txns made %.0f allocations, want <= %d", decay, n, allocs, limit)
		}
		tr := w.Snapshot()
		want := traceKeys(tr)
		for _, txn := range tr.Txns {
			txn.Accesses = append(txn.Accesses, acc(-1, true))
		}
		for i, txn := range tr.Txns {
			txn.Accesses = txn.Accesses[:len(txn.Accesses)-1]
			if got := traceKeys(&workload.Trace{Txns: []*workload.Txn{txn}})[0]; got != want[i] {
				t.Fatalf("decay %v: txn %d = %s after appending to its neighbours, want %s", decay, i, got, want[i])
			}
		}
	}
}

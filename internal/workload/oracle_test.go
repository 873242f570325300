package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The trace-space transaction sampling the compact one replaced, kept as
// its oracle: it builds a new trace of the kept transactions, and
// interning that trace is what SampleTxns must return.

func refSampleTxns(tr *Trace, rate float64, rng *rand.Rand) *Trace {
	if rate >= 1 {
		return tr
	}
	out := NewTrace()
	for _, t := range tr.Txns {
		if rng.Float64() < rate {
			out.Add(t.Accesses, t.SQL...)
		}
	}
	return out
}

// expand rebuilds the transactions of a compact trace.
func expand(c *Compact) *Trace {
	tr := NewTrace()
	for ti := 0; ti < c.NumTxns(); ti++ {
		accs := make([]Access, 0, len(c.Txn(ti)))
		for _, e := range c.Txn(ti) {
			accs = append(accs, Access{Tuple: c.In.TupleOf(int32(e &^ WriteBit)), Write: e&WriteBit != 0})
		}
		tr.Add(accs)
	}
	return tr
}

// sameCompact reports how two compact traces differ, or "".
func sameCompact(got, want *Compact) string {
	switch {
	case !slices.Equal(got.Off, want.Off):
		return fmt.Sprintf("offsets %v, want %v", got.Off, want.Off)
	case !slices.Equal(got.Accs, want.Accs):
		return fmt.Sprintf("accesses %v, want %v", got.Accs, want.Accs)
	case !slices.Equal(got.In.Tuples(), want.In.Tuples()):
		return fmt.Sprintf("tuples %v, want %v", got.In.Tuples(), want.In.Tuples())
	}
	return ""
}

// oracleTrace has hot and cold tuples over three tables, duplicate
// accesses and, every 17th transaction, no access at all: sampling must
// keep or drop those like any other.
func oracleTrace(rng *rand.Rand, txns int) *Trace {
	tables := []string{"a", "b", "c"}
	tr := NewTrace()
	for i := 0; i < txns; i++ {
		var acc []Access
		if i%17 != 16 {
			for j := 0; j < 1+rng.Intn(12); j++ {
				key := int64(rng.Intn(80))
				if rng.Intn(3) == 0 {
					key = int64(rng.Intn(4))
				}
				acc = append(acc, Access{Tuple: TupleID{Table: tables[rng.Intn(3)], Key: key}, Write: rng.Intn(4) == 0})
			}
		}
		tr.Add(acc)
	}
	return tr
}

// TestFiltersMatchTraceOracle pins compact transaction sampling to its
// trace-space oracle — the same kept transactions and accesses, ids in
// first-appearance order, the same RNG draws — alone and applied to its
// own renumbered output, on a trace and on its compact-only twin.
func TestFiltersMatchTraceOracle(t *testing.T) {
	type step struct {
		name  string
		ref   func(*Trace, *rand.Rand) *Trace
		dense func(*Compact, *rand.Rand) *Compact
	}
	steps := []step{}
	for _, rate := range []float64{0.01, 0.3, 0.7, 1} {
		steps = append(steps, step{fmt.Sprintf("SampleTxns(%v)", rate),
			func(tr *Trace, rng *rand.Rand) *Trace { return refSampleTxns(tr, rate, rng) },
			func(c *Compact, rng *rand.Rand) *Compact { return SampleTxns(c, rate, rng) }})
	}
	check := func(t *testing.T, name string, tr *Trace, chain []step, seed int64) {
		t.Helper()
		refRng, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		want, twin := tr, FromCompact(CompactTrace(tr))
		got := CompactTrace(twin)
		for _, s := range chain {
			want = s.ref(want, refRng)
			got = s.dense(got, rng)
		}
		if diff := sameCompact(got, CompactTrace(want)); diff != "" {
			t.Fatalf("%s: %s", name, diff)
		}
		if refRng.Int63() != rng.Int63() {
			t.Fatalf("%s: sampling drew a different number of random values", name)
		}
	}
	for trial := int64(0); trial < 6; trial++ {
		tr := oracleTrace(rand.New(rand.NewSource(trial)), 40+60*int(trial))
		for _, s := range steps {
			check(t, fmt.Sprintf("trial %d %s", trial, s.name), tr, []step{s}, trial)
		}
		// A sample of a sample: the second pass reads a renumbered Compact.
		check(t, fmt.Sprintf("trial %d chained", trial), tr, []step{steps[2], steps[1]}, trial)
	}
}

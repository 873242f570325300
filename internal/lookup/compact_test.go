package lookup

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCompact(t *testing.T) {
	testTableBasics(t, func() Table { return NewCompact() })

	c := NewCompact()
	// Dense ascending fill: everything lands in slots at 1 byte/key.
	for k := int64(0); k < 10000; k++ {
		c.Set(k, []int{int(k % 7)})
	}
	if len(c.side) != 0 {
		t.Errorf("dense keys leaked to side map: %d", len(c.side))
	}
	if c.Len() != 10000 {
		t.Errorf("Len = %d", c.Len())
	}
	// Geometric growth leaves bounded headroom; Trim drops it.
	if mem := c.MemoryBytes(); mem > 22000 {
		t.Errorf("memory = %d, want <= ~2 bytes/key before Trim", mem)
	}
	c.Trim()
	if mem := c.MemoryBytes(); mem > 13000 {
		t.Errorf("memory = %d, want ~1 byte/key after Trim", mem)
	}
	// Far outliers go to the side map, not a giant array.
	c.Set(1<<40, []int{3})
	if parts, ok := c.Locate(1 << 40); !ok || parts[0] != 3 {
		t.Errorf("outlier: %v %v", parts, ok)
	}
	if c.numSlots() > 1<<21 {
		t.Errorf("outlier inflated dense array to %d slots", c.numSlots())
	}
	// Negative keys work.
	c.Set(-5, []int{1})
	if parts, ok := c.Locate(-5); !ok || parts[0] != 1 {
		t.Errorf("negative key: %v %v", parts, ok)
	}
}

func TestCompactRandomOrderConverges(t *testing.T) {
	// Random insertion order over a dense range must converge to dense
	// storage (side entries migrate into slots as the range grows).
	rng := rand.New(rand.NewSource(3))
	c := NewCompact()
	perm := rng.Perm(50000)
	for _, k := range perm {
		c.Set(int64(k), []int{k % 5})
	}
	if frac := float64(len(c.side)) / 50000; frac > 0.02 {
		t.Errorf("%.1f%% of dense keys stuck in side map", 100*frac)
	}
	for k := int64(0); k < 50000; k++ {
		parts, ok := c.Locate(k)
		if !ok || len(parts) != 1 || parts[0] != int(k%5) {
			t.Fatalf("Locate(%d) = %v %v", k, parts, ok)
		}
	}
}

func TestCompactWidthPromotion(t *testing.T) {
	c := NewCompact()
	// More than 254 distinct replica sets forces 2-byte slots. Pairs
	// (k mod 251, 251) are distinct for 251 values of k; adding the
	// triples pushes past the 1-byte dictionary limit.
	set := func(k int64) []int {
		if k < 600 {
			return []int{int(k % 251), 251}
		}
		return []int{int(k % 251), int((k/251 + k) % 251), 252}
	}
	for k := int64(0); k < 1200; k++ {
		c.Set(k, set(k))
	}
	if c.width < 2 {
		t.Fatalf("width = %d after %d distinct sets", c.width, len(c.dict.sets))
	}
	for k := int64(0); k < 1200; k++ {
		parts, ok := c.Locate(k)
		if !ok || !containsAll(parts, set(k)...) {
			t.Fatalf("Locate(%d) = %v %v after widen", k, parts, ok)
		}
	}
}

func TestRuns(t *testing.T) {
	testTableBasics(t, func() Table { return NewRuns() })

	r := NewRuns()
	// A range partitioning collapses to one run per partition.
	for k := int64(0); k < 40000; k++ {
		r.Set(k, []int{int(k / 10000)})
	}
	if r.NumRuns() != 4 {
		t.Errorf("runs = %d, want 4", r.NumRuns())
	}
	if mem := r.MemoryBytes(); mem > 1000 {
		t.Errorf("memory = %d, want ~20 bytes/run", mem)
	}
	// Overwriting a key mid-run splits it; restoring re-merges.
	r.Set(5000, []int{9})
	if r.NumRuns() != 6 {
		t.Errorf("after split: runs = %d, want 6", r.NumRuns())
	}
	if parts, ok := r.Locate(5000); !ok || parts[0] != 9 {
		t.Errorf("split key: %v %v", parts, ok)
	}
	if parts, ok := r.Locate(4999); !ok || parts[0] != 0 {
		t.Errorf("left of split: %v %v", parts, ok)
	}
	r.Set(5000, []int{0})
	if r.NumRuns() != 4 {
		t.Errorf("after re-merge: runs = %d, want 4", r.NumRuns())
	}
	if r.Len() != 40000 {
		t.Errorf("Len = %d", r.Len())
	}
}

// TestExtremeKeys: keys at and near the int64 domain edges must store and
// resolve exactly in every representation — Compact routes them to its
// side map (dense range arithmetic would overflow) and Runs keeps
// MaxInt64 out of interval runs (its exclusive end is unrepresentable).
func TestExtremeKeys(t *testing.T) {
	const maxI = int64(^uint64(0) >> 1) // math.MaxInt64
	minI := -maxI - 1
	keys := []int64{minI, minI + 1, -1, 0, 1, maxI - 1, maxI}
	for _, mk := range []struct {
		name string
		t    Table
	}{{"compact", NewCompact()}, {"runs", NewRuns()}, {"hashindex", NewHashIndex()}} {
		tbl := mk.t
		for i, k := range keys {
			tbl.Set(k, []int{i % 5})
		}
		// Overwrite the extremes to exercise the update path too.
		tbl.Set(maxI, []int{7})
		tbl.Set(minI, []int{8})
		for i, k := range keys {
			want := i % 5
			switch k {
			case maxI:
				want = 7
			case minI:
				want = 8
			}
			parts, ok := tbl.Locate(k)
			if !ok || len(parts) != 1 || parts[0] != want {
				t.Errorf("%s: Locate(%d) = %v %v, want [%d]", mk.name, k, parts, ok, want)
			}
		}
		if _, ok := tbl.Locate(maxI - 2); ok {
			t.Errorf("%s: unset near-extreme key resolved", mk.name)
		}
		// Enumeration must include the extremes exactly once, in order.
		if rng, ok := tbl.(Ranger); ok {
			var got []int64
			rng.Range(func(key int64, _ []int) bool {
				got = append(got, key)
				return true
			})
			if len(got) != len(keys) || got[0] != minI || got[len(got)-1] != maxI {
				t.Errorf("%s: Range keys = %v", mk.name, got)
			}
		}
	}
	// Runs: ascending fill ending at MaxInt64 must not wrap the last run.
	r := NewRuns()
	for k := maxI - 3; ; k++ {
		r.Set(k, []int{1})
		if k == maxI {
			break
		}
	}
	for k := maxI - 3; ; k++ {
		if parts, ok := r.Locate(k); !ok || parts[0] != 1 {
			t.Fatalf("runs: Locate(%d) = %v %v after ascending fill to MaxInt64", k, parts, ok)
		}
		if k == maxI {
			break
		}
	}
}

// TestTableEquivalenceQuick: all three representations agree under random
// workloads (quick-check property, complements the fuzz harness).
func TestTableEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tables := []Table{NewHashIndex(), NewCompact(), NewRuns()}
		for i := 0; i < 400; i++ {
			k := rng.Int63n(512)
			if rng.Intn(8) == 0 {
				k = rng.Int63n(1 << 30) // occasional far key
			}
			parts := make([]int, 1+rng.Intn(3))
			for j := range parts {
				parts[j] = rng.Intn(16)
			}
			for _, tbl := range tables {
				tbl.Set(k, parts)
			}
		}
		for k := int64(-2); k < 514; k++ {
			want, wantOK := tables[0].Locate(k)
			for _, tbl := range tables[1:] {
				got, ok := tbl.Locate(k)
				if ok != wantOK || len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i] != want[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressPicksRepresentation(t *testing.T) {
	// Range-clustered contents compress to Runs.
	h := NewHashIndex()
	for k := int64(0); k < 20000; k++ {
		h.Set(k, []int{int(k / 5000)})
	}
	if _, ok := Compress(h).(*Runs); !ok {
		t.Errorf("range-clustered table should compress to Runs, got %T", Compress(h))
	}
	// Dense scattered sets compress to Compact.
	h2 := NewHashIndex()
	rng := rand.New(rand.NewSource(7))
	for k := int64(0); k < 20000; k++ {
		h2.Set(k, []int{rng.Intn(8)})
	}
	if _, ok := Compress(h2).(*Compact); !ok {
		t.Errorf("dense scattered table should compress to Compact, got %T", Compress(h2))
	}
	// Compression preserves contents and shrinks memory.
	c := Compress(h2)
	if c.MemoryBytes() >= h2.MemoryBytes() {
		t.Errorf("compress grew memory: %d -> %d", h2.MemoryBytes(), c.MemoryBytes())
	}
	for k := int64(0); k < 20000; k++ {
		want, _ := h2.Locate(k)
		got, ok := c.Locate(k)
		if !ok || got[0] != want[0] {
			t.Fatalf("Locate(%d) = %v %v, want %v", k, got, ok, want)
		}
	}
	// A table without Range passes through unchanged.
	opaque := struct{ Table }{h2}
	if Compress(opaque) != Table(opaque) {
		t.Error("non-Ranger table should pass through Compress")
	}
	// A range-clustered table plus outlier keys near both int64 extremes:
	// the dense-span estimate must not wrap negative and shadow Runs.
	hx := NewHashIndex()
	for k := int64(0); k < 20000; k++ {
		hx.Set(k, []int{int(k / 5000)})
	}
	const maxI = int64(^uint64(0) >> 1)
	hx.Set(maxI-5, []int{1})
	hx.Set(-maxI+5, []int{2})
	cx := Compress(hx)
	if _, ok := cx.(*Runs); !ok {
		t.Errorf("extreme-spanned clustered table compressed to %T (%d bytes), want Runs", cx, cx.MemoryBytes())
	}
	for _, k := range []int64{0, 9999, 19999, maxI - 5, -maxI + 5} {
		want, _ := hx.Locate(k)
		got, ok := cx.Locate(k)
		if !ok || got[0] != want[0] {
			t.Fatalf("extreme Compress: Locate(%d) = %v %v, want %v", k, got, ok, want)
		}
	}
}

func TestRouter(t *testing.T) {
	r := NewRouter(4)
	r.Set("stock", 10, []int{2})
	r.Set("item", 5, []int{0, 1, 2, 3})
	if parts, ok := r.Locate("stock", 10); !ok || parts[0] != 2 {
		t.Errorf("Locate stock/10 = %v %v", parts, ok)
	}
	if _, ok := r.Locate("stock", 11); ok {
		t.Error("unknown key should miss")
	}
	if _, ok := r.Locate("nope", 10); ok {
		t.Error("unknown table should miss")
	}
	if got := r.Names(); len(got) != 2 || got[0] != "item" || got[1] != "stock" {
		t.Errorf("Names = %v", got)
	}
	if r.K() != 4 {
		t.Errorf("K = %d", r.K())
	}
	if r.MemoryBytes() <= 0 {
		t.Error("MemoryBytes should be positive")
	}
	// Compress keeps contents.
	for k := int64(0); k < 5000; k++ {
		r.Set("stock", k, []int{int(k % 4)})
	}
	before, _ := r.Locate("stock", 1234)
	r.Compress()
	after, ok := r.Locate("stock", 1234)
	if !ok || after[0] != before[0] {
		t.Errorf("Compress changed routing: %v -> %v", before, after)
	}
}

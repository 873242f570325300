package lookup

import (
	"math/rand"
	"slices"
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

// TestExtremeKeys: keys at and near the int64 domain edges must store and
// resolve exactly in every representation — Compact routes them to its
// side map (dense range arithmetic would overflow).
func TestExtremeKeys(t *testing.T) {
	const maxI = int64(^uint64(0) >> 1) // math.MaxInt64
	minI := -maxI - 1
	keys := []int64{minI, minI + 1, -1, 0, 1, maxI - 1, maxI}
	for _, mk := range []struct {
		name string
		t    Table
	}{{"compact", NewCompact()}, {"hashindex", NewHashIndex()}} {
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
}

// TestTableEquivalenceQuick: both representations agree under random
// workloads (quick-check property, complements the fuzz harness).
func TestTableEquivalenceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tables := []Table{NewHashIndex(), NewCompact()}
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

// TestCompressPicksRepresentation: dense keys compress to Compact, sparse
// ones (a table's exceptions to its rules) stay a HashIndex, and either
// way Compress keeps the contents.
func TestCompressPicksRepresentation(t *testing.T) {
	same := func(name string, want, got Table, keys []int64) {
		t.Helper()
		for _, k := range keys {
			w, _ := want.Locate(k)
			g, ok := got.Locate(k)
			if !ok || !slices.Equal(g, w) {
				t.Fatalf("%s: Locate(%d) = %v %v, want %v", name, k, g, ok, w)
			}
		}
	}
	// Dense keys compress to Compact, range-clustered or scattered.
	rng := rand.New(rand.NewSource(7))
	clustered, scattered := NewHashIndex(), NewHashIndex()
	var dense []int64
	for k := int64(0); k < 20000; k++ {
		clustered.Set(k, []int{int(k / 5000)})
		scattered.Set(k, []int{rng.Intn(8)})
		dense = append(dense, k)
	}
	for name, h := range map[string]*HashIndex{"clustered": clustered, "scattered": scattered} {
		c := Compress(h)
		if _, ok := c.(*Compact); !ok {
			t.Errorf("%s: dense table compressed to %T, want Compact", name, c)
		}
		if c.MemoryBytes() >= h.MemoryBytes() {
			t.Errorf("%s: compress grew memory: %d -> %d", name, h.MemoryBytes(), c.MemoryBytes())
		}
		same(name, h, c, dense)
	}
	// Sparse keys stay in the map: one key in a thousand costs less there
	// than a slot for every key of its span.
	sparse := NewHashIndex()
	var spread []int64
	for k := int64(0); k < 1000; k++ {
		sparse.Set(k*1000, []int{int(k % 4)})
		spread = append(spread, k*1000)
	}
	if c := Compress(sparse); c != Table(sparse) {
		t.Errorf("sparse table compressed to %T (%d bytes), want it unchanged (%d bytes)", c, c.MemoryBytes(), sparse.MemoryBytes())
	}
	// A Compact built sparse moves to a map.
	sc := NewCompact()
	for _, k := range spread {
		v, _ := sparse.Locate(k)
		sc.Set(k, v)
	}
	if c := Compress(sc); c == Table(sc) || c.MemoryBytes() >= sc.MemoryBytes() {
		t.Errorf("sparse Compact (%d bytes) compressed to %T (%d bytes), want a smaller HashIndex", sc.MemoryBytes(), c, c.MemoryBytes())
	} else {
		same("sparse-compact", sparse, c, spread)
	}
	// A table without Range passes through unchanged.
	opaque := struct{ Table }{scattered}
	if Compress(opaque) != Table(opaque) {
		t.Error("non-Ranger table should pass through Compress")
	}
	// Dense keys plus outliers near both int64 extremes: the dense-span
	// estimate must not wrap negative and pick Compact.
	hx := NewHashIndex()
	for k := int64(0); k < 20000; k++ {
		hx.Set(k, []int{int(k / 5000)})
	}
	const maxI = int64(^uint64(0) >> 1)
	hx.Set(maxI-5, []int{1})
	hx.Set(-maxI+5, []int{2})
	if cx := Compress(hx); cx != Table(hx) {
		t.Errorf("extreme-spanned table compressed to %T (%d bytes), want it unchanged", cx, cx.MemoryBytes())
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

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
// resolve exactly — Compact routes them to its side map (dense range
// arithmetic would overflow) — before and after Trim.
func TestExtremeKeys(t *testing.T) {
	const maxI = int64(^uint64(0) >> 1) // math.MaxInt64
	minI := -maxI - 1
	keys := []int64{minI, minI + 1, -1, 0, 1, maxI - 1, maxI}
	c := NewCompact()
	for i, k := range keys {
		c.Set(k, []int{i % 5})
	}
	// Overwrite the extremes to exercise the update path too.
	c.Set(maxI, []int{7})
	c.Set(minI, []int{8})
	for _, stage := range []string{"built", "trimmed"} {
		if stage == "trimmed" {
			c.Trim()
		}
		for i, k := range keys {
			want := i % 5
			switch k {
			case maxI:
				want = 7
			case minI:
				want = 8
			}
			parts, ok := c.Locate(k)
			if !ok || len(parts) != 1 || parts[0] != want {
				t.Errorf("%s: Locate(%d) = %v %v, want [%d]", stage, k, parts, ok, want)
			}
		}
		if _, ok := c.Locate(maxI - 2); ok {
			t.Errorf("%s: unset near-extreme key resolved", stage)
		}
		// Enumeration must include the extremes exactly once, in order.
		var got []int64
		c.Range(func(key int64, _ []int) bool {
			got = append(got, key)
			return true
		})
		if !slices.IsSorted(got) || len(got) != len(keys) || got[0] != minI || got[len(got)-1] != maxI {
			t.Errorf("%s: Range keys = %v", stage, got)
		}
	}
}

// model is the reference a table is checked against: a plain map from key
// to its sorted, deduplicated replica set.
type model map[int64][]int

func (m model) set(key int64, parts []int) {
	s := slices.Clone(parts)
	slices.Sort(s)
	m[key] = slices.Compact(s)
}

// agrees reports the first key of keys on which c and m differ.
func (m model) agrees(c *Compact, keys []int64) (int64, bool) {
	for _, k := range keys {
		want, wantOK := m[k]
		got, ok := c.Locate(k)
		if ok != wantOK || !slices.Equal(got, want) {
			return k, false
		}
	}
	return 0, true
}

// TestTableEquivalenceQuick: Compact agrees with the model under random
// workloads, with a Trim partway and more Sets after it (quick-check
// property, complements the fuzz harness).
func TestTableEquivalenceQuick(t *testing.T) {
	var probes []int64
	for k := int64(-2); k < 514; k++ {
		probes = append(probes, k)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, m := NewCompact(), model{}
		for i := 0; i < 400; i++ {
			if i == 200 {
				c.Trim()
			}
			k := rng.Int63n(512)
			if rng.Intn(8) == 0 {
				k = rng.Int63n(1 << 30) // occasional far key
			}
			parts := make([]int, 1+rng.Intn(3))
			for j := range parts {
				parts[j] = rng.Intn(16)
			}
			c.Set(k, parts)
			m.set(k, parts)
		}
		_, ok := m.agrees(c, probes)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTrimPicksLayout: Trim keeps dense keys in slots, range-clustered or
// scattered, and moves sparse ones (a table's exceptions to its rules) to
// the side map, and either way keeps the contents.
func TestTrimPicksLayout(t *testing.T) {
	fill := func(keys []int64, set func(k int64) []int) (*Compact, model) {
		c, m := NewCompact(), model{}
		for _, k := range keys {
			parts := set(k)
			c.Set(k, parts)
			m.set(k, parts)
		}
		return c, m
	}
	check := func(name string, c *Compact, m model, slots int64) {
		t.Helper()
		before := c.MemoryBytes()
		c.Trim()
		if c.numSlots() != slots {
			t.Errorf("%s: %d slots after Trim, want %d (%d keys in the side map)", name, c.numSlots(), slots, len(c.side))
		}
		if c.MemoryBytes() > before {
			t.Errorf("%s: Trim grew memory: %d -> %d", name, before, c.MemoryBytes())
		}
		keys := make([]int64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		if k, ok := m.agrees(c, keys); !ok {
			t.Errorf("%s: Locate(%d) changed across Trim", name, k)
		}
	}
	// Dense keys finish in slots, range-clustered or scattered.
	rng := rand.New(rand.NewSource(7))
	var dense []int64
	for k := int64(0); k < 20000; k++ {
		dense = append(dense, k)
	}
	c, m := fill(dense, func(k int64) []int { return []int{int(k / 5000)} })
	check("clustered", c, m, 20000)
	c, m = fill(dense, func(int64) []int { return []int{rng.Intn(8)} })
	check("scattered", c, m, 20000)

	// One key in a thousand costs less in the side map than a slot for
	// every key of its span, in whatever order it was set.
	var spread []int64
	for k := int64(0); k < 1000; k++ {
		spread = append(spread, k*1000)
	}
	quarter := func(k int64) []int { return []int{int(k/1000) % 4} }
	c, m = fill(spread, quarter)
	check("sparse", c, m, 0)
	shuffled := slices.Clone(spread)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	c, m = fill(shuffled, quarter)
	check("sparse-shuffled", c, m, 0)
	// A table built sparse: 50 keys 20 apart all fit the slot span that
	// growth allows a small table, but cost more there than in the map.
	var few []int64
	for k := int64(0); k < 50; k++ {
		few = append(few, k*20)
	}
	c, m = fill(few, quarter)
	if len(c.side) != 0 {
		t.Fatalf("built-sparse: %d keys in the side map before Trim, want all in slots", len(c.side))
	}
	check("built-sparse", c, m, 0)

	// Dense keys plus outliers near both int64 extremes: the outliers
	// must not stretch the slot span.
	const maxI = int64(^uint64(0) >> 1)
	c, m = fill(append(slices.Clone(dense), maxI-5, -maxI+5), func(k int64) []int { return []int{int(k&3) + 1} })
	check("extreme-spanned", c, m, 20000)
}

// TestTrimNeverLarger: on tables of every density Trim leaves a table no
// larger, by MemoryBytes, than all its keys in the side map, and a table
// Trim spilled keeps every key across later Sets and a second Trim.
func TestTrimNeverLarger(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gaps := []int64{1, 3, 10, 17, 30, 100, 1000}
	var spills int
	for _, gap := range gaps {
		c, m := NewCompact(), model{}
		var keys []int64
		for i := 0; i < 2000; i++ {
			k := rng.Int63n(2000 * gap)
			c.Set(k, []int{int(k % 6)})
			m.set(k, []int{int(k % 6)})
			keys = append(keys, k)
		}
		c.Trim()
		if other := int64(c.Len())*sideEntryBytes + c.dict.memoryBytes(); c.MemoryBytes() > other {
			t.Errorf("gap %d: trimmed table %d bytes, all in the side map %d", gap, c.MemoryBytes(), other)
		}
		spilled := c.numSlots() == 0
		if spilled {
			spills++
		}
		// Later Sets: new dense keys, overwrites and far keys.
		for i := 0; i < 3000; i++ {
			k := rng.Int63n(4000)
			if i%3 == 0 {
				k = keys[rng.Intn(len(keys))]
			}
			c.Set(k, []int{int(k % 5), 5})
			m.set(k, []int{int(k % 5), 5})
			keys = append(keys, k)
		}
		if k, ok := m.agrees(c, keys); !ok {
			t.Fatalf("gap %d (spilled %v): Locate(%d) lost across Sets after Trim", gap, spilled, k)
		}
		c.Trim()
		if k, ok := m.agrees(c, keys); !ok {
			t.Fatalf("gap %d (spilled %v): Locate(%d) lost across a second Trim", gap, spilled, k)
		}
		if c.Len() != len(m) {
			t.Errorf("gap %d: Len = %d, want %d", gap, c.Len(), len(m))
		}
	}
	if spills == 0 || spills == len(gaps) {
		t.Errorf("Trim spilled %d of %d tables, want some of each layout", spills, len(gaps))
	}
}

// TestSpilledFlipsStayInSideMap: flipping the entries of a table Trim
// spilled, as the live migration executor does, updates them in the side
// map; it does not grow slots again over the map's keys.
func TestSpilledFlipsStayInSideMap(t *testing.T) {
	c, m := NewCompact(), model{}
	for k := int64(0); k < 1000; k++ {
		c.Set(k*1000, []int{0})
	}
	c.Trim()
	for k := int64(999); k >= 0; k-- {
		c.Set(k*1000, []int{int(k % 3), 3})
		m.set(k*1000, []int{int(k % 3), 3})
	}
	if c.numSlots() != 0 || len(c.side) != 1000 {
		t.Errorf("flips grew %d slots, left %d keys in the side map", c.numSlots(), len(c.side))
	}
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	if k, ok := m.agrees(c, keys); !ok {
		t.Errorf("Locate(%d) wrong after the flips", k)
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
	// Compress keeps contents, the dense table in slots and the sparse
	// one in its side map.
	for k := int64(0); k < 5000; k++ {
		r.Set("stock", k, []int{int(k % 4)})
	}
	for k := int64(0); k < 10; k++ {
		r.Set("item", k*1000, []int{0, 1, 2, 3})
	}
	before, _ := r.Locate("stock", 1234)
	r.Compress()
	after, ok := r.Locate("stock", 1234)
	if !ok || after[0] != before[0] {
		t.Errorf("Compress changed routing: %v -> %v", before, after)
	}
	if stock, _ := r.Get("stock"); stock.(*Compact).numSlots() != 5000 {
		t.Errorf("stock: %d slots after Compress, want 5000", stock.(*Compact).numSlots())
	}
	if item, _ := r.Get("item"); item.(*Compact).numSlots() != 0 {
		t.Errorf("item: %d slots after Compress, want its sparse keys in the side map", item.(*Compact).numSlots())
	}
}

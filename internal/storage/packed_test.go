package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"schism/internal/datum"
)

// sameDatum is identity, not datum.Equal: the packed leaf must hand back
// the kind and the bits it was given (NaN, -0.0, 1 vs 1.0).
func sameDatum(a, b datum.D) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

func sameRow(a, b Row) bool {
	return slices.EqualFunc(a, b, sameDatum)
}

// modelSchema has its key in the middle and enough columns to need a
// second kind word.
func modelSchema(ncols int, indexed bool) *TableSchema {
	s := &TableSchema{Name: fmt.Sprintf("m%d", ncols), Key: "c1"}
	for c := 0; c < ncols; c++ {
		s.Columns = append(s.Columns, Column{Name: fmt.Sprintf("c%d", c), Type: ColType((c + 2) % 3)})
	}
	if indexed {
		s.Indexes = []string{"c0", s.Columns[ncols-1].Name}
	}
	return s
}

var (
	oddInts   = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 7}
	oddFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 2.5, 7}
	bigString = strings.Repeat("schism", 700) // 4.2 KB
)

// randDatum ignores the column's declared type: kinds are stored per
// value. Values repeat often enough for index buckets to fill.
func randDatum(rng *rand.Rand) datum.D {
	switch rng.Intn(8) {
	case 0:
		return datum.NullD
	case 1:
		return datum.NewInt(oddInts[rng.Intn(len(oddInts))])
	case 2:
		return datum.NewFloat(oddFloats[rng.Intn(len(oddFloats))])
	case 3:
		return datum.NewString("")
	case 4:
		return datum.NewString(bigString[:rng.Intn(len(bigString)+1)])
	case 5:
		return datum.NewString(fmt.Sprint("s", rng.Intn(5)))
	case 6:
		return datum.NewFloat(rng.NormFloat64())
	}
	return datum.NewInt(rng.Int63n(5))
}

func randRow(rng *rand.Rand, s *TableSchema, key int64) Row {
	r := make(Row, len(s.Columns))
	for c := range r {
		r[c] = randDatum(rng)
	}
	r[s.keyIdx] = datum.NewInt(key)
	if rng.Intn(16) == 0 && key > 0 && key < 1<<50 {
		r[s.keyIdx] = datum.NewFloat(float64(key) + 0.25) // AsInt truncates
	}
	return r
}

// checkLeaves asserts what no read shows: slab and keys stay in step, and
// every string slot is either referenced by exactly one value or freed —
// a slot that leaks would grow its leaf for ever.
func checkLeaves(t *testing.T, tree *btree) {
	t.Helper()
	for l := tree.findLeaf(minInt64); l != nil; l = l.next {
		if len(l.keys) > maxLeaf {
			t.Fatalf("leaf holds %d rows, more than %d", len(l.keys), maxLeaf)
		}
		if len(l.slab) != len(l.keys)*tree.stride || cap(l.slab) != cap(l.keys)*tree.stride {
			t.Fatalf("leaf holds %d/%d keys and %d/%d slab words of stride %d",
				len(l.keys), cap(l.keys), len(l.slab), cap(l.slab), tree.stride)
		}
		used := make([]bool, len(l.strs))
		tree.eachSlot(l, 0, len(l.keys), func(val *uint64) {
			if used[*val] || l.strs[*val] == "" {
				t.Fatalf("slot %d shared or empty", *val)
			}
			used[*val] = true
		})
		for j, u := range used {
			if !u && l.strs[j] != "" {
				t.Fatalf("slot %d leaked holding %d bytes", j, len(l.strs[j]))
			}
		}
	}
}

// checkModel compares every read path of tbl with the reference.
func checkModel(t *testing.T, rng *rand.Rand, tbl *Table, ref map[int64]Row) {
	t.Helper()
	checkLeaves(t, tbl.tree)
	keys := make([]int64, 0, len(ref))
	var size int64
	for k, r := range ref {
		keys = append(keys, k)
		size += rowSize(r)
	}
	slices.Sort(keys)
	if tbl.Len() != len(ref) || tbl.SizeBytes() != size {
		t.Fatalf("Len %d SizeBytes %d, model %d %d", tbl.Len(), tbl.SizeBytes(), len(ref), size)
	}

	var kept []Row
	var got []int64
	tbl.ScanAll(func(k int64, r Row) bool {
		got = append(got, k)
		kept = append(kept, r)
		return true
	})
	if !slices.Equal(got, keys) {
		t.Fatalf("ScanAll keys %v, model %v", got, keys)
	}
	got = got[:0]
	tbl.ViewAll(func(k int64, r Row) bool {
		if !sameRow(r, ref[k]) {
			t.Fatalf("ViewAll key %d: %v, model %v", k, r, ref[k])
		}
		got = append(got, k)
		return true
	})
	if !slices.Equal(got, keys) {
		t.Fatalf("ViewAll keys %v, model %v", got, keys)
	}
	got = got[:0]
	tbl.ScanAllKeys(func(k int64) bool { got = append(got, k); return true })
	if !slices.Equal(got, keys) {
		t.Fatalf("ScanAllKeys %v, model %v", got, keys)
	}

	// A bounded scan, its bounds on and off stored keys, stopped early.
	if len(keys) > 0 {
		lo, hi := keys[rng.Intn(len(keys))]-int64(rng.Intn(2)), keys[rng.Intn(len(keys))]+int64(rng.Intn(2))
		var want []int64
		for _, k := range keys {
			if k >= lo && k <= hi {
				want = append(want, k)
			}
		}
		limit := 1 + rng.Intn(len(want)+1)
		want = want[:min(limit, len(want))]
		got = got[:0]
		tbl.Scan(lo, hi, func(k int64, r Row) bool {
			if !sameRow(r, ref[k]) {
				t.Fatalf("Scan key %d: %v, model %v", k, r, ref[k])
			}
			got = append(got, k)
			return len(got) < limit
		})
		if !slices.Equal(got, want) {
			t.Fatalf("Scan [%d,%d] keys %v, model %v", lo, hi, got, want)
		}
		got = got[:0]
		tbl.ScanKeys(lo, hi, func(k int64) bool { got = append(got, k); return len(got) < limit })
		if !slices.Equal(got, want) {
			t.Fatalf("ScanKeys [%d,%d] %v, model %v", lo, hi, got, want)
		}
	}

	for _, k := range keys {
		if r, ok := tbl.Get(k); !ok || !sameRow(r, ref[k]) {
			t.Fatalf("Get %d: %v %v, model %v", k, r, ok, ref[k])
		}
	}
	for _, col := range tbl.Schema.Indexes {
		ci := tbl.Schema.ColIndex(col)
		v := randDatum(rng)
		var want []int64
		for _, k := range keys {
			// An index is a hash bucket re-checked with Equal; NaN is
			// Equal to every number but shares a bucket only with NaN.
			if datum.Hash(ref[k][ci]) == datum.Hash(v) && datum.Equal(ref[k][ci], v) {
				want = append(want, k)
			}
		}
		if got := tbl.LookupIndex(col, v); !slices.Equal(got, want) {
			t.Fatalf("LookupIndex(%s, %v) = %v, model %v", col, v, got, want)
		}
	}

	// Rows a scan handed out are copies: overwriting every stored row
	// must not reach them.
	for _, k := range keys {
		if err := tbl.Update(k, randRow(rng, tbl.Schema, k)); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if !sameRow(kept[i], ref[k]) {
			t.Fatalf("row %d kept from ScanAll changed under Update: %v, was %v", k, kept[i], ref[k])
		}
		if err := tbl.Update(k, ref[k]); err != nil {
			t.Fatal(err)
		}
	}
}

// interleavedRuns is a key source of ascending runs in disjoint key
// ranges (run<<32 | seq), advanced round-robin: TPC-C's order ids per
// district. Each run's next key lands right after its last one, mostly
// inside a leaf rather than at the tree's right edge.
type interleavedRuns struct {
	seq  []int64
	turn int
}

func (r *interleavedRuns) next() int64 {
	run := r.turn % len(r.seq)
	r.turn++
	r.seq[run]++
	return int64(run)<<32 | r.seq[run]
}

// TestTableMatchesModel drives random operations against a map of Rows:
// every read path must agree with it after every batch, through leaf
// splits (in half, and after an ascending run's insert at the leaf's end
// or inside it), mid-leaf inserts, deletes down to empty leaves and
// strings coming and going.
func TestTableMatchesModel(t *testing.T) {
	ops := 160000
	if testing.Short() {
		ops = 135000
	}
	patterns := []string{"ascending", "descending", "random", "clustered", "interleaved"}
	done := 0
	for seed := int64(1); done < ops; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pattern := patterns[seed%int64(len(patterns))]
		schema := modelSchema([]int{2, 5, 33}[seed%3], seed%2 == 0)
		tbl := NewDatabase().MustCreateTable(schema)
		ref := make(map[int64]Row)
		next := int64(0)
		var runs interleavedRuns
		if pattern == "interleaved" {
			// Each run is pre-seeded with a few keys, so the round-robin
			// starts with every run's tail inside a leaf.
			runs.seq = make([]int64, 8+rng.Intn(73))
			for i := range runs.seq {
				runs.seq[i] = int64(rng.Intn(6))
				for k := int64(1); k <= runs.seq[i]; k++ {
					r := randRow(rng, schema, int64(i)<<32|k)
					if err := tbl.Insert(r); err != nil {
						t.Fatal(err)
					}
					ref[int64(i)<<32|k] = r
				}
			}
		}
		newKey := func() int64 {
			next++
			switch pattern {
			case "ascending":
				return next
			case "descending":
				return -next
			case "clustered":
				return math.MinInt64 + rng.Int63n(3000)
			case "interleaved":
				return runs.next()
			}
			return rng.Int63() - rng.Int63()
		}
		someKey := func() int64 {
			if len(ref) == 0 || rng.Intn(10) == 0 {
				return newKey() // usually absent
			}
			for k := range ref {
				return k
			}
			panic("unreachable")
		}
		n := 1500 + rng.Intn(1500)
		for op := 0; op < n; op++ {
			// The last third deletes more than it inserts, down to empty.
			del := 2
			if op > 2*n/3 {
				del = 6
			}
			switch x := rng.Intn(10); {
			case x < 4:
				k := newKey()
				r := randRow(rng, schema, k)
				err := tbl.Insert(r)
				if _, dup := ref[k]; dup != (err != nil) {
					t.Fatalf("seed %d: Insert %d: err %v, model has it: %v", seed, k, err, dup)
				}
				if err == nil {
					ref[k] = slices.Clone(r)
					r[0] = datum.NewString("caller's row, reused") // must not alias
				}
			case x < 4+del:
				k := someKey()
				_, had := ref[k]
				if tbl.Delete(k) != had || tbl.Has(k) {
					t.Fatalf("seed %d: Delete %d, model has it: %v", seed, k, had)
				}
				delete(ref, k)
			default:
				k := someKey()
				r := randRow(rng, schema, k)
				err := tbl.Update(k, r)
				if _, had := ref[k]; had != (err == nil) {
					t.Fatalf("seed %d: Update %d: err %v, model has it: %v", seed, k, err, had)
				}
				if err == nil {
					ref[k] = r
				}
			}
			if op%500 == 499 || op == n-1 {
				checkModel(t, rng, tbl, ref)
			}
		}
		done += n
	}
}

// decodeRow reads one datum per 9 bytes: a kind and 8 bytes that are the
// integer, the float's bits, or (their low 12 bits) a string's length.
func decodeRow(data []byte) Row {
	var r Row
	for ; len(data) >= 9; data = data[9:] {
		bits := binary.LittleEndian.Uint64(data[1:9])
		switch datum.Kind(data[0] & 3) {
		case datum.Null:
			r = append(r, datum.NullD)
		case datum.Int:
			r = append(r, datum.NewInt(int64(bits)))
		case datum.Float:
			r = append(r, datum.NewFloat(math.Float64frombits(bits)))
		case datum.String:
			r = append(r, datum.NewString(bigString[:bits&0xfff]))
		}
	}
	return r
}

// FuzzPackedRow round-trips arbitrary rows through a leaf: written
// between neighbours, overwritten by a second row (slots reused or
// freed), carried through splits, and read back bit for bit.
func FuzzPackedRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 2, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Add(bytes.Repeat([]byte{3, 5, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, 20))
	f.Fuzz(func(t *testing.T, data []byte) {
		a := decodeRow(data)
		// b is a second row of a's arity: the input read from a third in,
		// padded with NULLs.
		b := append(decodeRow(data[len(data)/3:]), make(Row, len(a))...)[:len(a)]
		tree := newBTree(len(a))
		got := make(Row, len(a))
		read := func(key int64, want Row) {
			l, i, ok := tree.find(key)
			if !ok {
				t.Fatalf("key %d lost", key)
			}
			tree.unpack(l, i, got)
			if !sameRow(got, want) || tree.rowBytes(l, i) != rowSize(want) {
				t.Fatalf("key %d reads %v (%d bytes), wrote %v (%d bytes)", key, got, tree.rowBytes(l, i), want, rowSize(want))
			}
		}
		for k := int64(0); k < 3*maxLeaf; k++ {
			tree.insert(k*2, a)
		}
		for k := int64(0); k < 3*maxLeaf; k += 2 {
			put(tree, k*2, b) // overwrite in place
			tree.insert(k*2+1, b)
			tree.delete(k*2 + 2)
		}
		for k := int64(0); k < 3*maxLeaf; k += 2 {
			read(k*2, b)
			read(k*2+1, b)
			if _, _, ok := tree.find(k*2 + 2); ok {
				t.Fatalf("key %d survived delete", k*2+2)
			}
		}
	})
}

// insertRuns inserts n 8-column numeric rows (order_line's shape, 80
// stored bytes each) under keys from next.
func insertRuns(t *testing.T, tbl *Table, n int, next func() int64) {
	t.Helper()
	row := make(Row, len(tbl.Schema.Columns))
	for i := 0; i < n; i++ {
		k := next()
		for c := range row {
			row[c] = datum.NewInt(k + int64(c))
		}
		row[len(row)-1] = datum.NewFloat(float64(k) / 100)
		row[tbl.Schema.keyIdx] = datum.NewInt(k)
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
}

// keyOrders are the insert orders TPC-C's tables see: one ascending run
// (a load, or history under one client), and 80 runs advanced
// round-robin (orders, new_order and order_line within each district).
var keyOrders = []struct {
	name string
	next func() func() int64
}{
	{"ascending", func() func() int64 {
		k := int64(0)
		return func() int64 { k++; return k }
	}},
	{"interleaved", func() func() int64 {
		return (&interleavedRuns{seq: make([]int64, 80)}).next
	}},
}

// TestRowFootprint bounds what a stored all-numeric row costs on the heap,
// key, tree and slack included: order_line's shape under order-id keys.
// A []Row leaf cost about 370 bytes for the same row.
func TestRowFootprint(t *testing.T) {
	const n, ncols = 100000, 8
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, order := range keyOrders {
		t.Run(order.name, func(t *testing.T) {
			before := heap()
			tbl := NewDatabase().MustCreateTable(modelSchema(ncols, false))
			insertRuns(t, tbl, n, order.next())
			perRow := float64(heap()-before) / n
			t.Logf("%.1f heap bytes per %d-column row", perRow, ncols)
			if perRow > 100 {
				t.Fatalf("a stored row costs %.1f bytes, want <= 100", perRow)
			}
			runtime.KeepAlive(tbl)
		})
	}
}

// TestInsertAllocatedBytes bounds the bytes inserting a row allocates,
// kept or not, at 1.6 times the 80 it stores. A run's insert that
// overflows its leaf leaves the run the leaf's arrays to go on filling,
// or a new leaf with room for a whole one; splitting every leaf in half
// cost ~350 bytes per row, each half copied and then regrown.
func TestInsertAllocatedBytes(t *testing.T) {
	const n, ncols, stored = 100000, 8, 80
	for _, order := range keyOrders {
		t.Run(order.name, func(t *testing.T) {
			tbl := NewDatabase().MustCreateTable(modelSchema(ncols, false))
			next := order.next()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			insertRuns(t, tbl, n, next)
			runtime.ReadMemStats(&after)
			perRow := float64(after.TotalAlloc-before.TotalAlloc) / n
			t.Logf("%.1f bytes allocated per %d-byte row", perRow, stored)
			if perRow > 1.6*stored {
				t.Fatalf("inserting a row allocates %.1f bytes, want <= %.0f", perRow, 1.6*stored)
			}
		})
	}
}

// TestTableAllocs pins the copies the write and read paths make: none to
// store or overwrite a row (ascending keys are a run, which fills each
// leaf after the first in the one allocation that gives it its full
// capacity: about 1/64 per insert; an index entry is touched only when
// its column changes), one to read it.
func TestTableAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		indexed bool
		row     Row
	}{
		{"numeric", false, Row{datum.NewInt(0), datum.NewInt(0), datum.NewFloat(1.5)}},
		{"string", false, Row{datum.NewString("name"), datum.NewInt(0), datum.NewString(bigString)}},
		{"indexed", true, Row{datum.NewString("name"), datum.NewInt(0), datum.NewFloat(1.5)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tbl := NewDatabase().MustCreateTable(modelSchema(3, tc.indexed))
			row, key := tc.row, int64(0)
			insert := testing.AllocsPerRun(5000, func() {
				key++
				row[1] = datum.NewInt(key)
				if err := tbl.Insert(row); err != nil {
					t.Fatal(err)
				}
			})
			if insert != 0 && !tc.indexed { // index buckets grow by allocating
				t.Errorf("Insert: %v allocs per row, want 0", insert)
			}
			if got := testing.AllocsPerRun(1000, func() {
				key = key%5000 + 1
				row[1] = datum.NewInt(key)
				if err := tbl.Update(key, row); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("Update: %v allocs, want 0", got)
			}
			if got := testing.AllocsPerRun(1000, func() {
				key = key%5000 + 1
				if _, ok := tbl.Get(key); !ok {
					t.Fatal("row missing")
				}
			}); got != 1 {
				t.Errorf("Get: %v allocs, want 1", got)
			}
		})
	}
}

// TestConcurrentReaders runs every read path from several goroutines
// against a table one goroutine keeps writing, under the RWMutex
// discipline Node.latch imposes. Run with -race: a reader that shared a
// scratch buffer through the Table would be caught here.
func TestConcurrentReaders(t *testing.T) {
	tbl := NewDatabase().MustCreateTable(accountSchema())
	var latch sync.RWMutex
	const keys = 2000
	for k := int64(0); k < keys; k += 2 {
		if err := tbl.Insert(row(k, "even", float64(k))); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			check := func(k int64, r Row) bool {
				if id, _ := r[0].AsInt(); id != k || r[2].F != float64(k) {
					t.Errorf("key %d reads %v", k, r)
					return false
				}
				return true
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				latch.RLock()
				switch k := rng.Int63n(keys); rng.Intn(5) {
				case 0:
					if r, ok := tbl.Get(k); ok {
						check(k, r)
					}
				case 1:
					tbl.Scan(k, k+100, check)
				case 2:
					tbl.ViewAll(check)
				case 3:
					tbl.ScanKeys(k, k+100, func(int64) bool { return true })
				case 4:
					for _, k := range tbl.LookupIndex("name", datum.NewString("odd")) {
						if k%2 != 1 {
							t.Errorf("index lists %d as odd", k)
						}
					}
				}
				latch.RUnlock()
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 4000; i++ {
		k := rng.Int63n(keys/2)*2 + 1
		latch.Lock()
		if !tbl.Delete(k) {
			if err := tbl.Insert(row(k, "odd", float64(k))); err != nil {
				t.Error(err)
			}
		}
		if err := tbl.Update(k-1, row(k-1, fmt.Sprint("even", i), float64(k-1))); err != nil {
			t.Error(err)
		}
		latch.Unlock()
	}
	close(stop)
	readers.Wait()
}

package zipf

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

func TestZipfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	z := New(rng, 1000, YCSBTheta)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("value %d out of range", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	z := New(rng, 10000, YCSBTheta)
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be by far the hottest: under Zipf(0.99) over 10k items it
	// receives ~10% of draws; uniform would give 0.01%.
	if frac := float64(counts[0]) / draws; frac < 0.02 {
		t.Errorf("rank-0 frequency %f; want heavily skewed (> 0.02)", frac)
	}
	if counts[0] <= counts[5000] {
		t.Error("rank 0 should dominate rank 5000")
	}
}

func TestScrambledSpreadsHotKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewScrambled(rng, 10000, YCSBTheta)
	counts := make(map[uint64]int)
	for i := 0; i < 100000; i++ {
		v := s.Next()
		if v >= 10000 {
			t.Fatalf("value %d out of range", v)
		}
		counts[v]++
	}
	// The hottest key should NOT be key 0 with overwhelming probability:
	// scrambling hashes rank 0 elsewhere.
	hot, hotN := uint64(0), 0
	for k, n := range counts {
		if n > hotN {
			hot, hotN = k, n
		}
	}
	if hotN < 1000 {
		t.Errorf("scrambled output lost skew: max count %d", hotN)
	}
	if hot == 0 {
		t.Log("note: hottest key hashed to 0 (possible but unlikely)")
	}
}

func TestUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := NewUniform(rng, 100)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		v := u.Next()
		if v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) < 95 {
		t.Errorf("uniform covered only %d/100 keys", len(seen))
	}
}

func TestDeterminism(t *testing.T) {
	a := New(rand.New(rand.NewSource(7)), 500, 0.8)
	b := New(rand.New(rand.NewSource(7)), 500, 0.8)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed must give same sequence")
		}
	}
}

func TestNewPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		n     uint64
		theta float64
	}{{0, 0.5}, {10, 0}, {10, 1}, {10, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %f) should panic", tc.n, tc.theta)
				}
			}()
			New(rng, tc.n, tc.theta)
		}()
	}
}

func TestHash64MatchesFNV(t *testing.T) {
	vs := []uint64{0, 1, 255, 256, math.MaxUint64, 1 << 63}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		vs = append(vs, rng.Uint64())
	}
	for _, v := range vs {
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
		if got, want := Hash64(v), h.Sum64(); got != want {
			t.Fatalf("Hash64(%d) = %#x, hash/fnv gives %#x", v, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { Hash64(12345) }); allocs != 0 {
		t.Fatalf("Hash64 allocates %.1f times, want 0", allocs)
	}
}

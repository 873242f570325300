package datum

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCompareOrdering(t *testing.T) {
	for _, tc := range []struct {
		a, b D
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.0), 0},
		{NewFloat(1.5), NewInt(2), -1},
		{NewString("a"), NewString("b"), -1},
		{NullD, NewInt(0), -1},
		{NewInt(0), NewString(""), -1},
		{NullD, NullD, 0},
	} {
		if got := Compare(tc.a, tc.b); got != tc.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestHashEqualConsistency(t *testing.T) {
	if Hash(NewInt(42)) != Hash(NewFloat(42.0)) {
		t.Error("42 and 42.0 are Equal but hash differently")
	}
	if Hash(NewString("x")) == Hash(NewString("y")) {
		t.Error("distinct strings collide (suspicious)")
	}
}

func TestConversions(t *testing.T) {
	if f, ok := NewInt(3).AsFloat(); !ok || f != 3 {
		t.Error("int AsFloat")
	}
	if i, ok := NewFloat(3.9).AsInt(); !ok || i != 3 {
		t.Error("float AsInt should truncate")
	}
	if _, ok := NewString("z").AsFloat(); ok {
		t.Error("string AsFloat must fail")
	}
	if _, ok := NullD.AsInt(); ok {
		t.Error("null AsInt must fail")
	}
}

func TestStringRendering(t *testing.T) {
	for _, tc := range []struct {
		d    D
		want string
	}{
		{NewInt(-7), "-7"},
		{NewString("hi"), "'hi'"},
		{NullD, "NULL"},
	} {
		if got := tc.d.String(); got != tc.want {
			t.Errorf("%v.String() = %q, want %q", tc.d, got, tc.want)
		}
	}
}

func TestSize(t *testing.T) {
	if NewInt(1).Size() != 8 {
		t.Error("int size")
	}
	if NewString("abcd").Size() != 20 {
		t.Error("string size should be 16+len")
	}
}

// Properties: Compare is antisymmetric and Equal implies equal hashes.
func TestCompareProperties(t *testing.T) {
	mk := func(kind uint8, i int64, s string) D {
		switch kind % 4 {
		case 0:
			return NullD
		case 1:
			return NewInt(i)
		case 2:
			return NewFloat(float64(i) / 2)
		default:
			return NewString(s)
		}
	}
	anti := func(k1, k2 uint8, i1, i2 int64, s1, s2 string) bool {
		a, b := mk(k1, i1, s1), mk(k2, i2, s2)
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(anti, nil); err != nil {
		t.Error(err)
	}
	hashEq := func(k1, k2 uint8, i1, i2 int64, s1, s2 string) bool {
		a, b := mk(k1, i1, s1), mk(k2, i2, s2)
		if Equal(a, b) {
			return Hash(a) == Hash(b)
		}
		return true
	}
	if err := quick.Check(hashEq, nil); err != nil {
		t.Error(err)
	}
}

// refHash is Hash as written against hash/fnv: the reference the inline
// FNV-1a must match bit for bit (placements and secondary indexes are
// keyed by it).
func refHash(d D) uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	switch d.K {
	case Null:
		h.Write([]byte{0})
	case Int:
		u64(uint64(d.I))
	case Float:
		if d.F == math.Trunc(d.F) && d.F >= math.MinInt64 && d.F <= math.MaxInt64 {
			u64(uint64(int64(d.F)))
		} else {
			u64(math.Float64bits(d.F))
		}
	case String:
		h.Write([]byte{2})
		h.Write([]byte(d.S))
	}
	return h.Sum64()
}

func TestHashMatchesFNV(t *testing.T) {
	edge := math.Ldexp(1, 63) // float64(math.MaxInt64) rounds up to 2^63
	ds := []D{
		NullD, {K: Kind(7)},
		NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(math.NaN()),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(0.5), NewFloat(-2.25),
		NewFloat(edge), NewFloat(-edge), NewFloat(math.Nextafter(edge, 0)),
		NewFloat(math.Nextafter(edge, math.Inf(1))), NewFloat(math.Nextafter(-edge, math.Inf(-1))),
		NewFloat(math.SmallestNonzeroFloat64), NewFloat(math.MaxFloat64),
		NewString(""), NewString("a"), NewString(strings.Repeat("xy\x00\xff", 1024)),
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0:
			ds = append(ds, NewInt(int64(rng.Uint64())))
		case 1:
			ds = append(ds, NewFloat(float64(rng.Int63n(1<<40)-1<<39)))
		case 2:
			ds = append(ds, NewFloat(math.Float64frombits(rng.Uint64())))
		case 3:
			b := make([]byte, rng.Intn(64))
			rng.Read(b)
			ds = append(ds, NewString(string(b)))
		}
	}
	for _, d := range ds {
		if got, want := Hash(d), refHash(d); got != want {
			t.Fatalf("Hash(%#v) = %#x, hash/fnv gives %#x", d, got, want)
		}
	}
	for _, d := range []D{NullD, NewInt(42), NewFloat(1.5), NewFloat(3), NewString("abc")} {
		if allocs := testing.AllocsPerRun(100, func() { Hash(d) }); allocs != 0 {
			t.Fatalf("Hash(%v) allocates %.1f times, want 0", d, allocs)
		}
	}
}

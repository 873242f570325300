// Package zipf implements the Zipfian and scrambled-Zipfian generators used
// by the YCSB benchmark (Cooper et al., SoCC 2010). The stdlib rand.Zipf
// requires s > 1; YCSB's canonical skew constant is theta = 0.99, so we
// implement the YCSB algorithm (Gray et al.'s quick Zipfian) directly.
package zipf

import (
	"math"
	"math/rand"
)

// Zipf draws values in [0, n) with a Zipfian distribution: item rank r is
// drawn with probability proportional to 1/r^theta. Rank 0 is the hottest.
type Zipf struct {
	rng        *rand.Rand
	n          uint64
	theta      float64
	alpha      float64
	zetan      float64
	zeta2theta float64
	eta        float64
}

// YCSBTheta is the skew constant used throughout the YCSB paper.
const YCSBTheta = 0.99

// New returns a Zipfian generator over [0, n) with the given skew.
// theta must be in (0, 1); n must be >= 1.
func New(rng *rand.Rand, n uint64, theta float64) *Zipf {
	if n < 1 {
		panic("zipf: n must be >= 1")
	}
	if theta <= 0 || theta >= 1 {
		panic("zipf: theta must be in (0,1)")
	}
	z := &Zipf{rng: rng, n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.zeta2theta = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next Zipfian-distributed value in [0, n).
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// Scrambled wraps a Zipfian generator so that the popular items are spread
// uniformly over the key space instead of clustered at low keys, matching
// YCSB's ScrambledZipfianGenerator. The output remains Zipfian in frequency
// but hot keys are hashed across [0, n).
type Scrambled struct {
	z *Zipf
	n uint64
}

// NewScrambled returns a scrambled-Zipfian generator over [0, n).
func NewScrambled(rng *rand.Rand, n uint64, theta float64) *Scrambled {
	return &Scrambled{z: New(rng, n, theta), n: n}
}

// Next draws the next scrambled value in [0, n).
func (s *Scrambled) Next() uint64 {
	return Hash64(s.z.Next()) % s.n
}

// Hash64 is the FNV-1a hash of the little-endian encoding of v, used to
// scatter Zipfian ranks across the key space deterministically.
func Hash64(v uint64) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return h
}

// Uniform draws uniformly from [0, n); provided for symmetry so workload
// generators can switch distributions behind one interface.
type Uniform struct {
	rng *rand.Rand
	n   uint64
}

// NewUniform returns a uniform generator over [0, n).
func NewUniform(rng *rand.Rand, n uint64) *Uniform { return &Uniform{rng: rng, n: n} }

// Next draws the next uniform value in [0, n).
func (u *Uniform) Next() uint64 { return uint64(u.rng.Int63n(int64(u.n))) }

package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is HDR-style log-linear: values below 2^histSubBits are
// recorded exactly; above that, each power-of-two octave is split into
// 2^histSubBits linear sub-buckets, bounding the relative quantization
// error at 2^-histSubBits (3.1%) while covering the full int64 nanosecond
// range in a fixed 15 KiB array. Recording is one atomic increment: no
// locks, no allocation, safe for any number of concurrent writers.
const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // 2^e <= v < 2^(e+1), e >= histSubBits
	sub := int(v>>(uint(e)-histSubBits)) & (histSub - 1)
	return (e-histSubBits)*histSub + histSub + sub
}

// bucketBounds returns the inclusive [lo, hi] value range of bucket idx.
func bucketBounds(idx int) (lo, hi uint64) {
	if idx < 2*histSub {
		return uint64(idx), uint64(idx)
	}
	e := uint(idx/histSub - 1 + histSubBits)
	sub := uint64(idx % histSub)
	width := uint64(1) << (e - histSubBits)
	lo = (histSub + sub) * width
	return lo, lo + width - 1
}

// Hist is a concurrent latency histogram. Record is wait-free (atomic
// adds only); readers observe a consistent-enough view while writers run
// and an exact one once they stop. The zero value is ready to use.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Uint64 // nanoseconds
	min    atomic.Uint64 // stores value+1; 0 means no value recorded yet
	max    atomic.Uint64
}

// Record adds one duration. Negative durations clamp to zero.
func (h *Hist) Record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if cur != 0 && v+1 >= cur {
			break
		}
		if h.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded values.
func (h *Hist) Count() int64 { return int64(h.n.Load()) }

// Mean returns the average recorded duration.
func (h *Hist) Mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min returns the smallest recorded duration (0 when empty).
func (h *Hist) Min() time.Duration {
	m := h.min.Load()
	if m == 0 {
		return 0
	}
	return time.Duration(m - 1)
}

// Max returns the largest recorded duration (0 when empty).
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns an estimate of the q-quantile (q in [0, 1]) with
// relative error bounded by 2^-histSubBits: the returned value lies in
// the same bucket as the exact order statistic at rank ceil(q*n). The
// result is clamped to the recorded [Min, Max].
func (h *Hist) Quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			_, hi := bucketBounds(i)
			v := hi
			if mx := h.max.Load(); v > mx {
				v = mx
			}
			if mn := h.min.Load(); mn != 0 && v < mn-1 {
				v = mn - 1
			}
			return time.Duration(v)
		}
	}
	return time.Duration(h.max.Load())
}

// Add merges other into h (bucket-wise sum). Merging is associative and
// commutative, so sharded histograms can be folded in any order.
func (h *Hist) Add(other *Hist) {
	if other == nil {
		return
	}
	for i := range h.counts {
		if c := other.counts[i].Load(); c > 0 {
			h.counts[i].Add(c)
		}
	}
	on := other.n.Load()
	if on == 0 {
		return
	}
	h.n.Add(on)
	h.sum.Add(other.sum.Load())
	if om := other.min.Load(); om != 0 && (h.min.Load() == 0 || om < h.min.Load()) {
		h.min.Store(om)
	}
	if om := other.max.Load(); om > h.max.Load() {
		h.max.Store(om)
	}
}

// Equal reports whether two histograms hold identical distributions
// (bucket counts and summary statistics). Used by merge property tests.
func (h *Hist) Equal(other *Hist) bool {
	for i := range h.counts {
		if h.counts[i].Load() != other.counts[i].Load() {
			return false
		}
	}
	return h.n.Load() == other.n.Load() &&
		h.sum.Load() == other.sum.Load() &&
		h.Min() == other.Min() && h.Max() == other.Max()
}

// String renders the standard percentile line.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p999=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95),
		h.Quantile(0.99), h.Quantile(0.999), h.Max())
}

// Sharded is a set of per-client histograms: each client records into its
// own shard with zero cross-client contention, and Merged folds them into
// one histogram for reporting.
type Sharded struct {
	shards []*Hist
}

// NewSharded allocates n shards (minimum 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{shards: make([]*Hist, n)}
	for i := range s.shards {
		s.shards[i] = &Hist{}
	}
	return s
}

// Shard returns the histogram for client i (wrapped modulo shard count).
func (s *Sharded) Shard(i int) *Hist {
	if i < 0 {
		i = -i
	}
	return s.shards[i%len(s.shards)]
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Merged folds every shard into a fresh histogram.
func (s *Sharded) Merged() *Hist {
	out := &Hist{}
	for _, sh := range s.shards {
		out.Add(sh)
	}
	return out
}

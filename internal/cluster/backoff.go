package cluster

import (
	"math/bits"
	"time"
)

// Backoff shape for the wait-die retry loop (see runTxn) and commit
// re-delivery (see deliverCommit): exponential from backoffBase, capped
// at backoffBase << backoffMaxShift, with jitter.
const (
	backoffBase     = 100 * time.Microsecond
	backoffMaxShift = 7
)

// retryBackoff returns the sleep before retry number attempt (0-based):
// base*2^min(attempt, cap) scaled by a uniform jitter in [0.5, 1.5).
// The cap keeps a victim transaction from stalling minutes behind a
// crashed participant — at shift 7 the backoff is 12.8ms, on the scale
// of a lock-hold time, not a recovery — and the jitter decorrelates
// retry storms of transactions that all died against the same holder.
// Deterministic for a given (attempt, rng state): tests pin sequences
// under a fixed seed.
func retryBackoff(attempt int, rng *prng) time.Duration {
	shift := attempt
	if shift > backoffMaxShift {
		shift = backoffMaxShift
	}
	base := backoffBase << shift
	return base/2 + time.Duration(rng.intn(int(base)))
}

// prng is the per-transaction random source for replica choice and
// backoff jitter: a splitmix64 word held by value in Txn, because most
// transactions never draw from it and a math/rand source is a 4.9 KB
// allocation per transaction. Any seed works, consecutive clock ticks included.
type prng uint64

func (r *prng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// intn returns a uniform int in [0, n), n > 0, by multiply-shift (the
// bias is below n/2^64).
func (r *prng) intn(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

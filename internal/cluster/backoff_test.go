package cluster

import (
	"testing"
	"time"
)

// TestRetryBackoffPinnedSequence pins the exact backoff sequence for a
// fixed seed: the chaos tests' reproducibility depends on every source
// of scheduling randomness being deterministic under its seed, and this
// would silently break if the formula, the cap or the rng consumption
// pattern changed.
func TestRetryBackoffPinnedSequence(t *testing.T) {
	rng := prng(42)
	want := []time.Duration{
		124156, 131982, 311440, 675352, 860848,
		4378329, 4597793, 16648088, 10751117, 14316570,
	}
	for i, w := range want {
		if got := retryBackoff(i, &rng); got != w {
			t.Fatalf("retryBackoff(%d) under seed 42 = %v, want %v", i, got, w)
		}
	}
}

// TestRetryBackoffBounds checks the envelope for every attempt: uniform
// jitter in [base/2, 3*base/2) around base = backoffBase << min(attempt,
// backoffMaxShift), so the cap holds the worst case at 19.2ms.
func TestRetryBackoffBounds(t *testing.T) {
	rng := prng(7)
	for attempt := 0; attempt < 20; attempt++ {
		shift := attempt
		if shift > backoffMaxShift {
			shift = backoffMaxShift
		}
		base := backoffBase << shift
		for i := 0; i < 100; i++ {
			d := retryBackoff(attempt, &rng)
			if d < base/2 || d >= base+base/2 {
				t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d, base/2, base+base/2)
			}
		}
	}
}

// TestRetryBackoffCapped verifies attempts past the cap draw from the
// same distribution as the cap itself (no unbounded growth).
func TestRetryBackoffCapped(t *testing.T) {
	ra, rb := prng(99), prng(99)
	a := retryBackoff(backoffMaxShift, &ra)
	b := retryBackoff(backoffMaxShift+10, &rb)
	if a != b {
		t.Fatalf("capped attempts diverge: %v vs %v", a, b)
	}
}

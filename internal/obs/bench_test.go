package obs

import (
	"testing"
	"time"
)

// BenchmarkObsRecord measures the enabled hot path: one counter
// increment plus one histogram record, the per-commit cost the
// coordinator pays when a registry is attached.
func BenchmarkObsRecord(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("txn.committed")
	h := r.Hist("2pc.commit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Record(time.Duration(i&1023) * time.Microsecond)
	}
}

// BenchmarkObsRecordDisabled measures the same sites with a nil
// registry — the cost every transaction pays when observability is off.
func BenchmarkObsRecordDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("txn.committed")
	h := r.Hist("2pc.commit")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		if h != nil {
			h.Record(time.Duration(i&1023) * time.Microsecond)
		}
	}
}

// TestDisabledPathAllocFree pins the disabled mode at zero allocations:
// nil handles must not allocate per operation.
func TestDisabledPathAllocFree(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	tl := r.Timeline()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1)
		tl.Add("e", 0, 0, "")
		r.MarkCommit(nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per op, want 0", allocs)
	}
}

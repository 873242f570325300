package lookup

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchFill populates a table with a TPCC-50W-scale placement: 500k
// dense keys, 25k-key warehouse ranges striped over 8 partitions, with 2%
// of tuples replicated on a second partition (the graph phase's
// replicated read-mostly tuples).
func benchFill(t Table, n int) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < n; k++ {
		p := (k / 25000) % 8
		if rng.Intn(50) == 0 {
			t.Set(int64(k), []int{p, (p + 1) % 8})
		} else {
			t.Set(int64(k), []int{p})
		}
	}
}

// BenchmarkRouterLocate measures the per-statement routing hot path —
// Table.Locate — and each representation's memory footprint (reported as
// table-bytes) at TPCC-50W scale: hashindex is the map a table is built
// in, compact the dense representation Compress deploys for it.
func BenchmarkRouterLocate(b *testing.B) {
	const n = 500000
	reps := []struct {
		name string
		mk   func() Table
	}{
		{"hashindex", func() Table { return NewHashIndex() }},
		{"compact", func() Table { return NewCompact() }},
	}
	for _, rep := range reps {
		rep := rep
		b.Run(rep.name, func(b *testing.B) {
			t := rep.mk()
			benchFill(t, n)
			if c, ok := t.(*Compact); ok {
				c.Trim()
			}
			rng := rand.New(rand.NewSource(7))
			keys := make([]int64, 4096)
			for i := range keys {
				keys[i] = rng.Int63n(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var sink int
			// Each iteration locates the whole probe batch, so per-locate
			// timing is meaningful even at bench-smoke iteration counts.
			for i := 0; i < b.N; i++ {
				for _, key := range keys {
					parts, ok := t.Locate(key)
					if !ok {
						b.Fatal("miss")
					}
					sink += parts[0]
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/locate")
			b.ReportMetric(float64(t.MemoryBytes()), "table-bytes")
			_ = sink
		})
	}
}

// BenchmarkRouterBuild measures building + compressing a full deployment
// (what core.buildLookup and live.DeployLookup do per repartition).
func BenchmarkRouterBuild(b *testing.B) {
	const n = 500000
	for _, compress := range []bool{false, true} {
		name := "raw"
		if compress {
			name = "compressed"
		}
		b.Run(fmt.Sprintf("compact-%s", name), func(b *testing.B) {
			b.ReportAllocs()
			var mem int64
			for i := 0; i < b.N; i++ {
				r := NewRouter(8)
				benchFill(r.Table("stock"), n)
				if compress {
					r.Compress()
				}
				mem = r.MemoryBytes()
			}
			b.ReportMetric(float64(mem), "table-bytes")
		})
	}
}

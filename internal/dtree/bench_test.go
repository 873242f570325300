package dtree

import (
	"fmt"
	"math/rand"
	"testing"

	"schism/internal/datum"
)

// explainDataset builds the explanation-phase training set at TPCC-50W
// scale: the stock table's (s_i_id noise, s_w_id signal, s_region
// categorical) attributes labelled with the 8-partition placement the
// graph phase would produce (warehouses striped across partitions).
func explainDataset(rows int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := &Dataset{Attrs: []Attr{
		{Name: "s_i_id", Kind: Numeric},
		{Name: "s_w_id", Kind: Numeric},
		{Name: "s_region", Kind: Categorical},
	}}
	const warehouses = 50
	for i := 0; i < rows; i++ {
		w := 1 + rng.Intn(warehouses)
		ds.Add([]datum.D{
			datum.NewInt(int64(rng.Intn(100000))),
			datum.NewInt(int64(w)),
			datum.NewString(fmt.Sprintf("r%d", rng.Intn(10))),
		}, (w-1)*8/warehouses)
	}
	return ds
}

// BenchmarkExplain measures decision-tree training — the dominant cost of
// the offline explanation phase (§4.3) — on the TPCC-50W-scale training
// set: columnar (the production trainer) vs the seed's row-at-a-time
// reference.
func BenchmarkExplain(b *testing.B) {
	ds := explainDataset(100000, 42)
	b.Run("columnar", func(b *testing.B) {
		b.ReportAllocs()
		var leaves int
		for i := 0; i < b.N; i++ {
			leaves = Train(ds, Options{}).NumLeaves()
		}
		b.ReportMetric(float64(leaves), "leaves")
	})
	b.Run("seed", func(b *testing.B) {
		// The seed pipeline verbatim: row-at-a-time trainer plus the
		// O(errors)-per-inversion pruning CDF.
		b.ReportAllocs()
		var leaves int
		for i := 0; i < b.N; i++ {
			leaves = naiveSeedTrain(ds, Options{}).NumLeaves()
		}
		b.ReportMetric(float64(leaves), "leaves")
	})
	b.Run("naivetrain-fastprune", func(b *testing.B) {
		// Seed trainer with the new pruning: isolates the columnar layout's
		// share of the speedup from the pruning fix's.
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveTrain(ds, Options{})
		}
	})
}

// BenchmarkExplainSerial isolates single-worker columnar training, so the
// speedup over the naive reference can be decomposed into layout (serial)
// and parallelism (BenchmarkExplain/columnar) factors.
func BenchmarkExplainSerial(b *testing.B) {
	ds := explainDataset(100000, 42)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Train(ds, Options{Workers: 1})
	}
}

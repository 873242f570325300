package featsel

import (
	"math/rand"
	"testing"

	"schism/internal/datum"
	"schism/internal/workload"
	"schism/internal/workloads"
)

func TestFrequencies(t *testing.T) {
	tr := workload.NewTrace()
	tr.Add(nil,
		"SELECT * FROM stock WHERE s_w_id = 1 AND s_i_id = 5",
		"SELECT * FROM stock WHERE s_w_id = 2",
		"UPDATE stock SET s_qty = 3 WHERE s_w_id = 1 AND s_i_id = 9",
	)
	tr.Add(nil, "SELECT * FROM item WHERE i_id = 7", "not valid sql !!!")
	counts, total := Frequencies(tr)
	if total != 4 {
		t.Errorf("parsed stmts = %d, want 4 (invalid skipped)", total)
	}
	if counts[TableColumn{"stock", "s_w_id"}] != 3 {
		t.Errorf("s_w_id count = %d, want 3", counts[TableColumn{"stock", "s_w_id"}])
	}
	if counts[TableColumn{"stock", "s_i_id"}] != 2 {
		t.Errorf("s_i_id count = %d, want 2", counts[TableColumn{"stock", "s_i_id"}])
	}
	if counts[TableColumn{"item", "i_id"}] != 1 {
		t.Errorf("i_id count = %d", counts[TableColumn{"item", "i_id"}])
	}
}

func TestFrequent(t *testing.T) {
	counts := map[TableColumn]int{
		{"stock", "s_w_id"}: 100,
		{"stock", "s_i_id"}: 80,
		{"stock", "s_rare"}: 2,
		{"item", "i_id"}:    50,
	}
	cols := Frequent(counts, "stock", 0.1)
	if len(cols) != 2 || cols[0] != "s_w_id" || cols[1] != "s_i_id" {
		t.Errorf("Frequent = %v", cols)
	}
	if got := Frequent(counts, "nosuch", 0.1); got != nil {
		t.Errorf("unknown table: %v", got)
	}
}

func TestSymmetricUncertainty(t *testing.T) {
	// Perfectly predictive attribute.
	var vals []datum.D
	var labels []int
	for i := 0; i < 200; i++ {
		w := i % 2
		vals = append(vals, datum.NewInt(int64(w+1)))
		labels = append(labels, w)
	}
	if su := SymmetricUncertainty(vals, labels, 2); su < 0.99 {
		t.Errorf("SU of perfect predictor = %f, want ~1", su)
	}
	// Uninformative attribute.
	rng := rand.New(rand.NewSource(1))
	vals = vals[:0]
	labels = labels[:0]
	for i := 0; i < 2000; i++ {
		vals = append(vals, datum.NewInt(rng.Int63n(100000)))
		labels = append(labels, rng.Intn(2))
	}
	if su := SymmetricUncertainty(vals, labels, 2); su > 0.1 {
		t.Errorf("SU of noise = %f, want ~0", su)
	}
}

func TestSelectDiscardsNoise(t *testing.T) {
	// Mimic TPC-C stock: attr 0 = s_i_id (noise), attr 1 = s_w_id (label).
	rng := rand.New(rand.NewSource(2))
	var rows [][]datum.D
	var labels []int
	for i := 0; i < 500; i++ {
		w := rng.Intn(2)
		rows = append(rows, []datum.D{
			datum.NewInt(rng.Int63n(100000)),
			datum.NewInt(int64(w + 1)),
		})
		labels = append(labels, w)
	}
	keep := Select(rows, labels, 2, 2, 0.05, 0.3)
	if len(keep) != 1 || keep[0] != 1 {
		t.Errorf("Select = %v, want [1] (s_w_id only)", keep)
	}
}

func TestSelectAllNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows [][]datum.D
	var labels []int
	for i := 0; i < 1000; i++ {
		rows = append(rows, []datum.D{datum.NewInt(rng.Int63n(1000000))})
		labels = append(labels, rng.Intn(4))
	}
	if keep := Select(rows, labels, 4, 1, 0.05, 0.3); keep != nil {
		t.Errorf("noise selected: %v", keep)
	}
}

func TestDiscretiseFewDistinct(t *testing.T) {
	vals := []datum.D{datum.NewInt(5), datum.NewInt(9), datum.NewInt(5)}
	codes := discretise(vals, 10)
	if codes[0] != codes[2] || codes[0] == codes[1] {
		t.Errorf("codes = %v", codes)
	}
}

func TestDiscretiseManyDistinct(t *testing.T) {
	var vals []datum.D
	for i := 0; i < 1000; i++ {
		vals = append(vals, datum.NewInt(int64(i*7)))
	}
	codes := discretise(vals, 10)
	maxCode := 0
	for _, c := range codes {
		if c > maxCode {
			maxCode = c
		}
	}
	if maxCode >= 10 {
		t.Errorf("bin code %d exceeds bins", maxCode)
	}
	// Equal-frequency: value order preserved.
	if codes[0] != 0 || codes[999] != maxCode {
		t.Errorf("rank binning broken: first=%d last=%d", codes[0], codes[999])
	}
}

// BenchmarkFrequencies mines a TPC-C 2-warehouse trace, as core.Run does
// with its training half: the cost is parsing every statement.
func BenchmarkFrequencies(b *testing.B) {
	tr := workloads.TPCC(workloads.TPCCConfig{Warehouses: 2, Customers: 10, Items: 100, InitialOrders: 5, Txns: 1000, Seed: 2}).Trace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Frequencies(tr)
	}
}

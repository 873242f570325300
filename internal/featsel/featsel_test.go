package featsel

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"schism/internal/datum"
	"schism/internal/sqlparse"
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
	counts, total := Frequencies(tr, new(sqlparse.ColumnMemo))
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

// frequenciesParseEach is Frequencies without the column memo: it parses
// every statement on its own.
func frequenciesParseEach(tr *workload.Trace) (map[TableColumn]int, int) {
	counts := make(map[TableColumn]int)
	total := 0
	for _, t := range tr.Txns {
		for _, src := range t.SQL {
			stmt, err := sqlparse.Parse(src)
			if err != nil {
				continue
			}
			total++
			seen := make(map[TableColumn]bool)
			for _, use := range sqlparse.WhereColumns(stmt) {
				tc := TableColumn{Table: use.Table, Column: use.Column}
				if !seen[tc] {
					seen[tc] = true
					counts[tc]++
				}
			}
		}
	}
	return counts, total
}

// TestFrequenciesMatchesParseEach holds Frequencies, which parses each
// statement shape once, to parsing every statement: on every generator's
// trace, and on a hand-written one whose pairs of statements differ in a
// literal that decides whether they parse. Each pair names its own
// columns, so a pair wrongly sharing a shape moves a count.
func TestFrequenciesMatchesParseEach(t *testing.T) {
	hand := workload.NewTrace()
	hand.Add(nil,
		"SELECT * FROM t1 WHERE a = 1 LIMIT 1",
		"SELECT * FROM t1 WHERE a = 2 LIMIT 1.5",
		"UPDATE t2 SET a = a -1 WHERE k = 2",
		"UPDATE t2 SET a = a -9223372036854775808 WHERE k = 2",
		"SELECT * FROM t3 WHERE a = 9223372036854775807",
		"SELECT * FROM t3 WHERE a = 9223372036854775808",
		"SELECT * FROM t4 WHERE a = 1.5",
		"SELECT * FROM t4 WHERE a = 1.5.5",
		"SELECT * FROM t5 WHERE s = 'it''s' AND u = 'x'",
		"SELECT * FROM t5 WHERE s = 'plain' AND u = ''''",
		"select * from t6 where a = 1 and b = 2",
		"SELECT * FROM t6 WHERE a = 1 AND b = 2",
		"SELECT * FROM t7 WHERE s = 'open",
		"SELECT * FROM t7 WHERE s = 'shut'",
		"SELECT * FROM t8 WHERE a IN (1, 2)",
		"SELECT * FROM t8 WHERE a IN (1, 2, 3)",
	)
	for _, tc := range []struct {
		name string
		tr   *workload.Trace
	}{
		{"tpcc-2w", workloads.TPCC(workloads.TPCCConfig{Warehouses: 2, Customers: 10, Items: 100, InitialOrders: 5, Txns: 500, Seed: 2}).Trace},
		{"epinions", workloads.Epinions(workloads.EpinionsConfig{Users: 300, Items: 150, Communities: 8, Txns: 500, Seed: 7}).Trace},
		{"tpce", workloads.TPCE(workloads.TPCEConfig{Customers: 100, Securities: 50, Txns: 500, Seed: 8}).Trace},
		{"ycsb-a", workloads.YCSBA(workloads.YCSBConfig{Rows: 1000, Txns: 500, Seed: 4}).Trace},
		{"ycsb-e", workloads.YCSBE(workloads.YCSBConfig{Rows: 1000, Txns: 500, MaxScan: 20, Seed: 5}).Trace},
		{"random", workloads.Random(workloads.RandomConfig{Rows: 1000, Txns: 500, Seed: 6}).Trace},
		{"hand-written", hand},
	} {
		counts, total := Frequencies(tc.tr, new(sqlparse.ColumnMemo))
		wantCounts, wantTotal := frequenciesParseEach(tc.tr)
		if total != wantTotal || !reflect.DeepEqual(counts, wantCounts) {
			t.Errorf("%s: Frequencies counts %d statements %v, parsing each %d %v",
				tc.name, total, counts, wantTotal, wantCounts)
		}
		if total == 0 {
			t.Errorf("%s: no statement parsed", tc.name)
		}
	}
}

// BenchmarkFrequencies mines a TPC-C 2-warehouse trace as core.Run does
// its training half ("tpcc": 19 statement shapes, each parsed once), and
// the memo's worst case ("unique-shapes": 1000 statements whose IN lists
// grow by one value each, so every statement is a shape of its own and is
// parsed).
func BenchmarkFrequencies(b *testing.B) {
	tpcc := workloads.TPCC(workloads.TPCCConfig{Warehouses: 2, Customers: 10, Items: 100, InitialOrders: 5, Txns: 1000, Seed: 2}).Trace
	unique := workload.NewTrace()
	in := "0"
	for i := 1; i <= 1000; i++ {
		unique.Add(nil, "SELECT * FROM stock WHERE s_w_id = "+strconv.Itoa(i%8)+" AND s_i_id IN ("+in+")")
		in += ", " + strconv.Itoa(i)
	}
	for _, bc := range []struct {
		name string
		tr   *workload.Trace
	}{{"tpcc", tpcc}, {"unique-shapes", unique}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Frequencies(bc.tr, new(sqlparse.ColumnMemo))
			}
		})
	}
}

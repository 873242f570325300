package sqlparse_test

import (
	"reflect"
	"sync"
	"testing"

	"schism/internal/sqlparse"
	"schism/internal/workloads"
)

// TestParseReusedBufferMatchesFresh parses every statement of four
// generated traces through Parse, whose token buffers come from a pool
// shared by concurrent callers, and through a fresh lexer buffer and
// parser. Both must render the same statement, extract the same WHERE
// columns and fail alike, and a ColumnMemo per goroutine, which answers
// most statements from a shape seen before, must give the fresh parse's
// WHERE columns too. Four goroutines parse at once, so under -race this
// also checks that no two parses share a buffer.
func TestParseReusedBufferMatchesFresh(t *testing.T) {
	var stmts []string
	for _, w := range []*workloads.Workload{
		workloads.TPCC(workloads.TPCCConfig{Warehouses: 2, Customers: 10, Items: 100, InitialOrders: 5, Txns: 500, Seed: 2}),
		workloads.Epinions(workloads.EpinionsConfig{Users: 300, Items: 150, Communities: 8, Txns: 500, Seed: 7}),
		workloads.TPCE(workloads.TPCEConfig{Customers: 100, Securities: 50, Txns: 500, Seed: 8}),
		workloads.YCSBE(workloads.YCSBConfig{Rows: 1000, Txns: 500, MaxScan: 20, Seed: 5}),
	} {
		for _, txn := range w.Trace.Txns {
			stmts = append(stmts, txn.SQL...)
		}
	}
	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var memo sqlparse.ColumnMemo
			for i := g; i < len(stmts); i += workers {
				src := stmts[i]
				pooled, perr := sqlparse.Parse(src)
				fresh, ferr := sqlparse.ParseFresh(src)
				if (perr == nil) != (ferr == nil) || perr != nil && perr.Error() != ferr.Error() {
					t.Errorf("%q: pooled error %v, fresh error %v", src, perr, ferr)
					return
				}
				memoized, ok := memo.WhereColumns(src)
				if ok != (ferr == nil) {
					t.Errorf("%q: memo says parses %v, fresh error %v", src, ok, ferr)
					return
				}
				if perr != nil {
					continue
				}
				if f := sqlparse.WhereColumns(fresh); !reflect.DeepEqual(memoized, f) {
					t.Errorf("%q: WHERE columns %v memoized, %v fresh", src, memoized, f)
					return
				}
				if p, f := pooled.String(), fresh.String(); p != f {
					t.Errorf("%q renders %q pooled, %q fresh", src, p, f)
					return
				}
				if p, f := sqlparse.WhereColumns(pooled), sqlparse.WhereColumns(fresh); !reflect.DeepEqual(p, f) {
					t.Errorf("%q: WHERE columns %v pooled, %v fresh", src, p, f)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if len(stmts) < 5000 {
		t.Fatalf("only %d statements; the traces shrank", len(stmts))
	}
}

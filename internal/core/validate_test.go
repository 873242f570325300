package core

// Tests for previously uncovered validation-phase branches: the
// simplicity tie-break (§4.4), the placement of keys the lookup tables
// miss, and the balance rejection of degenerate explanations (§4.3
// condition ii).

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"schism/internal/datum"
	"schism/internal/partition"
	"schism/internal/sqlparse"
	"schism/internal/storage"
	"schism/internal/workload"
	"schism/internal/workloads"
)

// TestValidationTieBreakPrefersSimpler: a trace of single-tuple read-only
// transactions costs zero distributed transactions under every strategy,
// including full replication — so validation must pick a complexity-0
// strategy over the lookup table (complexity 2) even though the lookup
// table is evaluated first and ties never replace the incumbent on cost.
func TestValidationTieBreakPrefersSimpler(t *testing.T) {
	tr := workload.NewTrace()
	for i := 0; i < 400; i++ {
		tr.Add([]workload.Access{{Tuple: workload.TupleID{Table: "t", Key: int64(i % 50)}}})
	}
	res, err := Run(Input{Trace: tr, KeyColumns: map[string]string{"t": "id"}}, Options{Partitions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range res.Costs {
		if c.Distributed != 0 {
			t.Errorf("%s: %d distributed, want 0 (single-tuple read-only txns)", name, c.Distributed)
		}
	}
	if res.Chosen.Complexity() != 0 {
		t.Errorf("tie-break chose %s (complexity %d), want a complexity-0 strategy\n%s",
			res.ChosenName, res.Chosen.Complexity(), res.Report())
	}
}

// TestValidationToleranceTieBreak: the tie-break must also fire when the
// simpler strategy is slightly WORSE but within validationTolerance, and
// must NOT fire when the gap is wider than the tolerance.
func TestValidationToleranceTieBreak(t *testing.T) {
	// pairA and pairB are keys that key hashing splits across the two
	// partitions; the graph co-locates them.
	var pairA, pairB int64 = -1, -1
	for a := int64(0); a < 100 && pairB < 0; a++ {
		for b := a + 1; b < 100; b++ {
			if partition.HashPart(a, 2) != partition.HashPart(b, 2) {
				pairA, pairB = a, b
				break
			}
		}
	}
	// One transaction in every `every` writes the pair; everything else
	// is single-tuple. The trace's halves train and test the same way, so
	// hashing trails the lookup table by 1/every.
	mk := func(every int) *workload.Trace {
		tr := workload.NewTrace()
		for i := 0; i < 1000; i++ {
			if i%every == 0 {
				tr.Add([]workload.Access{
					{Tuple: workload.TupleID{Table: "t", Key: pairA}, Write: true},
					{Tuple: workload.TupleID{Table: "t", Key: pairB}, Write: true},
				})
			} else {
				tr.Add([]workload.Access{{Tuple: workload.TupleID{Table: "t", Key: int64(200 + i%40)}, Write: true}})
			}
		}
		return tr
	}
	for _, tc := range []struct {
		every int
		want  string
	}{
		{250, "hashing"},     // a 0.4 % gap, inside the tolerance
		{50, "lookup-table"}, // a 2 % gap, outside it
	} {
		res, err := Run(Input{Trace: mk(tc.every), KeyColumns: map[string]string{"t": "id"}},
			Options{Partitions: 2, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Costs["lookup-table"].Distributed != 0 {
			t.Fatalf("every %d: setup: lookup should co-locate the pair\n%s", tc.every, res.Report())
		}
		gap := res.Costs["hashing"].DistributedFrac()
		if want := 1 / float64(tc.every); math.Abs(gap-want) > 1e-9 {
			t.Fatalf("every %d: setup: hashing trails by %v, want %v\n%s", tc.every, gap, want, res.Report())
		}
		if res.ChosenName != tc.want {
			t.Errorf("every %d (gap %v): chose %s, want %s\n%s", tc.every, gap, res.ChosenName, tc.want, res.Report())
		}
	}
}

// TestMissedKeysFollowRules: the strategy's rules are the balanced
// explanation's, so a key the lookup tables miss still has one home. A
// fully bound INSERT of a new key routes exactly where Locate places the
// row it creates, its leaf's home; a read that binds only the key routes
// to the union of the leaves it reaches; a table without rules places
// the key on the Default, else on its key hash; and an existing row sits
// on its cut set if it was traced, else on its leaf's home.
func TestMissedKeysFollowRules(t *testing.T) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: 15, Items: 80, InitialOrders: 6, Txns: 800, Seed: 3,
	})
	res := runPipeline(t, w, 2, Options{Seed: 3})
	l := res.Lookup
	if res.Range == nil || !reflect.DeepEqual(l.Tables, res.Range.Tables) || res.Range.Router != nil {
		t.Fatalf("lookup rules %v, explanation %+v", l.Tables, res.Range)
	}
	const newKey = 1 << 40
	inserts, reads := 0, 0
	done := map[string]bool{}
	for _, txn := range w.Trace.Txns {
		for _, sql := range txn.SQL {
			stmt, err := sqlparse.Parse(sql)
			ins, ok := stmt.(*sqlparse.Insert)
			if err != nil || !ok || done[ins.Table] || res.Range.Tables[ins.Table] == nil {
				continue
			}
			done[ins.Table] = true
			keyCol := l.KeyColumn[ins.Table]
			fresh := sqlparse.Insert{Table: ins.Table, Cols: ins.Cols, Values: slices.Clone(ins.Values)}
			for i, c := range fresh.Cols {
				if c == keyCol {
					fresh.Values[i] = datum.NewInt(newKey)
				}
			}
			row := rowFunc(func(col string) datum.D {
				if i := slices.Index(fresh.Cols, col); i >= 0 {
					return fresh.Values[i]
				}
				return datum.D{}
			})
			id := workload.TupleID{Table: ins.Table, Key: newKey}
			table, cons, ok := sqlparse.Constraints(&fresh)
			home := l.Locate(id, row)
			if route := l.RouteStmt(table, cons, ok); !slices.Equal(route.All, home) || !slices.Equal(route.Single, home) {
				t.Errorf("%s: INSERT of a new key routes %+v, Locate places its row on %v", table, route, home)
			}
			if want := res.Range.Locate(id, row); !slices.Equal(home, want) {
				t.Errorf("%s: new row on %v, its leaf's home %v", table, home, want)
			}
			inserts++

			// A read binding the key alone leaves every test on another
			// column undecided.
			tree := res.Range.Tables[table].Nodes
			if len(tree) == 1 || slices.ContainsFunc(tree, func(n partition.RuleNode) bool { return n.Parts == nil && n.Column == keyCol }) {
				continue
			}
			read := []sqlparse.Constraint{{Table: table, Column: keyCol, Eq: []datum.D{datum.NewInt(newKey)}}}
			got, want := l.RouteStmt(table, read, true), res.Range.RouteStmt(table, read, true)
			if !slices.Equal(got.Single, want.Single) || !slices.Equal(got.All, want.All) {
				t.Errorf("%s: read of a new key routes %+v, the rules alone %+v", table, got, want)
			}
			if !slices.Contains(got.All, home[0]) {
				t.Errorf("%s: read of a new key routes %+v, which misses its home %v", table, got, home)
			}
			reads++
		}
	}
	if inserts == 0 || reads == 0 {
		t.Fatalf("%d INSERTs and %d reads checked; rules for %v", inserts, reads, res.RuleStrings)
	}

	// A table without rules: the Default, else the key hash.
	id := workload.TupleID{Table: "nosuch", Key: newKey}
	if got := l.Locate(id, nil); !slices.Equal(got, []int{partition.HashPart(newKey, 2)}) {
		t.Errorf("table without rules: %v, want its key hash", got)
	}
	withDefault := *l
	withDefault.Default = []int{1}
	if got := withDefault.Locate(id, nil); !slices.Equal(got, []int{1}) {
		t.Errorf("table without rules under a Default: %v, want [1]", got)
	}

	// Every existing stock row sits on its cut set if it was traced, else
	// on its rule's home.
	cutOf := map[int64][]int{}
	for d, id := range res.Tuples {
		if id.Table == "stock" {
			cutOf[id.Key] = res.Assignments[d]
		}
	}
	stock := w.DB.Table("stock")
	misplaced := 0
	stock.ViewAll(func(key int64, data storage.Row) bool {
		id := workload.TupleID{Table: "stock", Key: key}
		row := storage.RowView{Schema: stock.Schema, Data: data}
		want, traced := cutOf[key]
		if !traced {
			want = res.Range.Locate(id, row)
		}
		if !slices.Equal(l.Locate(id, row), want) {
			misplaced++
		}
		return true
	})
	if misplaced != 0 {
		t.Errorf("%d of %d stock rows off their cut or rule home", misplaced, stock.Len())
	}
}

// TestWithoutDBDefaultApplies: no database, no resolver and a write-heavy
// trace mean no rules and no Default, so unknown keys hash-place.
func TestWithoutDBDefaultApplies(t *testing.T) {
	tr := workload.NewTrace()
	for i := 0; i < 200; i++ {
		tr.Add([]workload.Access{{Tuple: workload.TupleID{Table: "t", Key: int64(i)}, Write: true}})
	}
	res, err := Run(Input{Trace: tr, KeyColumns: map[string]string{"t": "id"}}, Options{Partitions: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := res.Lookup
	if l.Tables != nil || l.Default != nil {
		t.Errorf("write-heavy trace: rules %v, Default %v, want none (hash placement)", l.Tables, l.Default)
	}
	got := l.Locate(workload.TupleID{Table: "t", Key: 1 << 30}, nil)
	if len(got) != 1 || got[0] != partition.HashPart(1<<30, 2) {
		t.Errorf("unknown key Locate = %v, want hash fallback", got)
	}
}

// rowFunc adapts a function to partition.Row.
type rowFunc func(column string) datum.D

func (f rowFunc) Get(column string) datum.D { return f(column) }

// TestBalancedRejectsFunnel: balanced() must reject an explanation that
// funnels every tuple onto one partition (it tolerates up to 2x the fair
// share, so the funnel only trips the check for k > 2), accept one that
// spreads load, and treat k = 1 as trivially balanced.
func TestBalancedRejectsFunnel(t *testing.T) {
	const k = 4
	tuples := make([]workload.TupleID, 100)
	for i := range tuples {
		tuples[i] = workload.TupleID{Table: "t", Key: int64(i)}
	}
	resolve := func(id workload.TupleID) partition.Row {
		key := id.Key
		return rowFunc(func(string) datum.D { return datum.NewInt(key % k) })
	}
	funnel := &partition.Lookup{K: k, Tables: map[string]*partition.TableRules{
		"t": {Nodes: []partition.RuleNode{{Parts: []int{0}}}, Default: []int{0}},
	}}
	if _, ok := balanced(funnel, tuples, resolve, k); ok {
		t.Error("funnel explanation accepted")
	}
	if _, ok := balanced(funnel, tuples, resolve, 1); !ok {
		t.Error("k=1 must always be balanced")
	}
	// Rules splitting on x = key mod k spread the load evenly.
	spread := &partition.Lookup{K: k, Tables: map[string]*partition.TableRules{
		"t": partition.Ranges("x", []int64{0, 1, 2}),
	}}
	if _, ok := balanced(spread, tuples, resolve, k); !ok {
		t.Error("spread explanation rejected")
	}
}

// TestPipelineRejectsDegenerateExplanation: end to end, a workload whose
// only frequent WHERE attribute does not predict placement must not ship
// a constant rule that funnels a table onto one partition — res.Range
// either omits the table or is dropped entirely by the balance check.
func TestPipelineRejectsDegenerateExplanation(t *testing.T) {
	w := workloads.Random(workloads.RandomConfig{Rows: 4000, Txns: 1000, Seed: 13})
	res := runPipeline(t, w, 8, Options{Seed: 4})
	if res.Range != nil {
		// Any surviving explanation must itself be balanced.
		if _, ok := balanced(res.Range, res.Tuples, w.Resolver(), 8); !ok {
			t.Errorf("unbalanced explanation survived:\n%s", res.Report())
		}
	}
}

// TestValidationMatchesEvaluate holds the validation phase, which resolves
// each held-out tuple once and locates it under every candidate, to
// partition.Evaluate run per candidate: every cost must be equal, with a
// resolver and without one.
func TestValidationMatchesEvaluate(t *testing.T) {
	tpcc := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: 20, Items: 120, InitialOrders: 8, Txns: cut(2000, 1000), Seed: 42,
	})
	epinions := workloads.Epinions(workloads.EpinionsConfig{
		Users: 400, Items: 200, Communities: 4, ReviewsPerUser: 6, TrustPerUser: 4, Txns: cut(2000, 1000), Seed: 4,
	})
	ycsb := workloads.YCSBA(workloads.YCSBConfig{Rows: 2000, Txns: cut(2000, 1000), Seed: 1})
	random := workloads.Random(workloads.RandomConfig{Rows: 4000, Txns: cut(1200, 600), Seed: 3})
	for _, tc := range []struct {
		name      string
		w         *workloads.Workload
		k         int
		resolve   bool
		wantRange bool
	}{
		{"tpcc", tpcc, 2, true, true},
		{"tpcc-no-resolver", tpcc, 2, false, false},
		{"epinions", epinions, 2, true, false},
		{"ycsb-a", ycsb, 4, true, false},
		{"ycsb-a-no-resolver", ycsb, 4, false, false},
		{"random", random, 8, true, false},
	} {
		in := Input{Trace: tc.w.Trace, KeyColumns: tc.w.KeyColumns, DB: tc.w.DB}
		if tc.resolve {
			in.Resolver = tc.w.Resolver()
		}
		res, err := Run(in, Options{Partitions: tc.k, Seed: 5})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.wantRange && res.Range == nil {
			t.Fatalf("%s: no range strategy to validate\n%s", tc.name, res.Report())
		}
		candidates := []partition.Strategy{res.Lookup,
			&partition.Hash{K: tc.k, KeyColumn: tc.w.KeyColumns}, &partition.FullReplication{K: tc.k}}
		if res.Range != nil {
			candidates = append(candidates, res.Range)
		}
		if len(res.Costs) != len(candidates) {
			t.Fatalf("%s: %d costs, want %d", tc.name, len(res.Costs), len(candidates))
		}
		_, test := tc.w.Trace.Split(trainFrac)
		for _, s := range candidates {
			if got, want := res.Costs[s.Name()], partition.Evaluate(test, s, in.Resolver); got != want {
				t.Errorf("%s: %s costs %+v, partition.Evaluate %+v", tc.name, s.Name(), got, want)
			}
		}
	}
}

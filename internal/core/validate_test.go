package core

// Tests for previously uncovered validation-phase branches: the
// simplicity tie-break (§4.4), Floating unknown-key semantics, and the
// balance rejection of degenerate explanations (§4.3 condition ii).

import (
	"testing"

	"schism/internal/datum"
	"schism/internal/dtree"
	"schism/internal/lookup"
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
// simpler strategy is slightly WORSE but within ValidationTolerance, and
// must NOT fire when the tolerance is tighter than the gap.
func TestValidationToleranceTieBreak(t *testing.T) {
	mk := func() *workload.Trace {
		// 2% of transactions write a tuple pair that key hashing splits
		// across the two partitions; the graph co-locates it. Everything
		// else is single-tuple.
		var pairA, pairB int64 = -1, -1
		for a := int64(0); a < 100 && pairB < 0; a++ {
			for b := a + 1; b < 100; b++ {
				if partition.HashPart(a, 2) != partition.HashPart(b, 2) {
					pairA, pairB = a, b
					break
				}
			}
		}
		tr := workload.NewTrace()
		for i := 0; i < 500; i++ {
			if i%50 == 0 {
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
	loose, err := Run(Input{Trace: mk(), KeyColumns: map[string]string{"t": "id"}},
		Options{Partitions: 2, Seed: 2, ValidationTolerance: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if loose.Costs["hashing"].Distributed == 0 {
		t.Fatal("setup: hashing should split the pair")
	}
	if loose.Costs["lookup-table"].Distributed != 0 {
		t.Fatalf("setup: lookup should co-locate the pair\n%s", loose.Report())
	}
	if loose.ChosenName != "hashing" {
		t.Errorf("loose tolerance: chose %s, want hashing\n%s", loose.ChosenName, loose.Report())
	}
	tight, err := Run(Input{Trace: mk(), KeyColumns: map[string]string{"t": "id"}},
		Options{Partitions: 2, Seed: 2, ValidationTolerance: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if tight.ChosenName != "lookup-table" {
		t.Errorf("tight tolerance: chose %s, want lookup-table\n%s", tight.ChosenName, tight.Report())
	}
}

// TestFloatingUnknownKeys: with a database present the lookup strategy
// covers every existing tuple and is marked Floating — unknown keys are
// brand-new tuples that stay unconstrained (Locate nil) and route to "any
// single partition", while known keys route to their stored replica set.
func TestFloatingUnknownKeys(t *testing.T) {
	w := workloads.TPCC(workloads.TPCCConfig{
		Warehouses: 2, Customers: 15, Items: 80, InitialOrders: 6, Txns: 800, Seed: 3,
	})
	res := runPipeline(t, w, 2, Options{Seed: 3})
	l := res.Lookup
	if !l.Floating {
		t.Fatal("lookup strategy not Floating despite DB coverage")
	}
	unknown := workload.TupleID{Table: "stock", Key: 1 << 40}
	if got := l.Locate(unknown, nil); got != nil {
		t.Errorf("unknown key Locate = %v, want nil (floating)", got)
	}
	keyCol := l.KeyColumn["stock"]
	routeFor := func(key int64) partition.Route {
		cons := []sqlparse.Constraint{{Table: "stock", Column: keyCol, Eq: []datum.D{datum.NewInt(key)}}}
		return l.RouteStmt("stock", cons, true)
	}
	// Brand-new key: any single partition may host it.
	r := routeFor(1 << 40)
	if len(r.Single) != 2 || len(r.All) != 0 {
		t.Errorf("floating route for new key = %+v, want Single = all partitions", r)
	}
	// Known key: the stored replica set.
	tbl, _ := l.Router.Get("stock")
	var knownKey int64
	tbl.(lookup.Ranger).Range(func(key int64, _ []int) bool {
		knownKey = key
		return false
	})
	want, _ := tbl.Locate(knownKey)
	r = routeFor(knownKey)
	if len(r.All) != len(want) || len(r.Single) != len(want) {
		t.Errorf("known key %d route %+v, want replica set %v", knownKey, r, want)
	}
	// Every existing stock row must be covered (that is what licenses the
	// floating semantics).
	missing := 0
	w.DB.Table("stock").ScanAll(func(key int64, _ storage.Row) bool {
		if _, ok := tbl.Locate(key); !ok {
			missing++
		}
		return true
	})
	if missing != 0 {
		t.Errorf("%d existing stock tuples missing from the lookup table", missing)
	}
}

// TestWithoutDBDefaultApplies: no database and a write-heavy trace means
// unknown keys hash-place (Default nil, not Floating).
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
	if l.Floating {
		t.Error("no DB: strategy must not be Floating")
	}
	if l.Default != nil {
		t.Errorf("write-heavy trace: Default = %v, want nil (hash placement)", l.Default)
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
	funnel := &partition.Range{K: k, Tables: map[string]*partition.TableRules{
		"t": {Table: "t", Rules: []partition.RangeRule{{Parts: []int{0}}}, Default: []int{0}},
	}}
	if balanced(funnel, tuples, resolve, k) {
		t.Error("funnel explanation accepted")
	}
	if !balanced(funnel, tuples, resolve, 1) {
		t.Error("k=1 must always be balanced")
	}
	// Rules splitting on x = key mod k spread the load evenly.
	spread := &partition.Range{K: k, Tables: map[string]*partition.TableRules{
		"t": {Table: "t", Rules: []partition.RangeRule{
			{Conds: []partition.RangeCond{{Column: "x", Op: dtree.CondLe, Value: datum.NewInt(0)}}, Parts: []int{0}},
			{Conds: []partition.RangeCond{{Column: "x", Op: dtree.CondLe, Value: datum.NewInt(1)}}, Parts: []int{1}},
			{Conds: []partition.RangeCond{{Column: "x", Op: dtree.CondLe, Value: datum.NewInt(2)}}, Parts: []int{2}},
		}, Default: []int{3}},
	}}
	if !balanced(spread, tuples, resolve, k) {
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
		if !balanced(res.Range, res.Tuples, w.Resolver(), 8) {
			t.Errorf("unbalanced explanation survived:\n%s", res.Report())
		}
	}
}

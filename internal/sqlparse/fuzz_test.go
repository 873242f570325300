package sqlparse

// Fuzz harness for the parser and its downstream consumers: Parse must
// never panic, every accepted statement must render to text that reparses
// to an identical rendering (the router logs and replays statements), the
// predicates the router extracts must survive the round trip, and the
// pooled parse must agree with a fresh one.

import (
	"reflect"
	"testing"

	"schism/internal/datum"
)

func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM stock WHERE s_w_id = 3 AND s_i_id IN (1, 2, 5)",
		"SELECT c_id, c_last FROM customer WHERE c_w_id = 1 ORDER BY c_last DESC LIMIT 10",
		"SELECT * FROM t WHERE a BETWEEN 5 AND 9 OR b = 'x''y'",
		"SELECT * FROM orders JOIN lines ON orders.o_id = lines.l_o_id WHERE o_id >= 7 FOR UPDATE",
		"UPDATE stock SET s_qty = s_qty - 10, s_remote = 1 WHERE s_w_id = 2 AND s_i_id = 77",
		"UPDATE t SET a = a -1 WHERE k = 3",
		"INSERT INTO history (h_id, h_amount, h_data) VALUES (42, 3.25, 'pay')",
		"DELETE FROM new_order WHERE no_o_id <= 2100",
		"SELECT * FROM t WHERE x = 1e+06 AND y != -0.5",
		"SELECT * FROM t WHERE ql = ?",
		"BEGIN; COMMIT",
		"select lower from UPPER where where = 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src) // must not panic
		fresh, ferr := ParseFresh(src)
		if (err == nil) != (ferr == nil) || err != nil && err.Error() != ferr.Error() {
			t.Fatalf("%q: pooled error %v, fresh error %v", src, err, ferr)
		}
		if err != nil {
			return
		}
		if stmt.String() != fresh.String() || !reflect.DeepEqual(WhereColumns(stmt), WhereColumns(fresh)) {
			t.Fatalf("%q: pooled %q and fresh %q parses differ", src, stmt, fresh)
		}
		// Downstream consumers must accept anything Parse accepts.
		_ = WhereColumns(stmt)
		table1, cons1, ok1 := Constraints(stmt)

		// Round trip: the rendering reparses, re-renders identically, and
		// yields the same extracted predicates.
		text := stmt.String()
		stmt2, err := Parse(text)
		if err != nil {
			t.Fatalf("rendering of accepted input does not reparse: %q -> %q: %v", src, text, err)
		}
		if text2 := stmt2.String(); text2 != text {
			t.Fatalf("rendering not a fixpoint: %q -> %q -> %q", src, text, text2)
		}
		table2, cons2, ok2 := Constraints(stmt2)
		if ok1 != ok2 || table1 != table2 || len(cons1) != len(cons2) {
			t.Fatalf("constraints changed across round trip: (%q %v %v) vs (%q %v %v)",
				table1, cons1, ok1, table2, cons2, ok2)
		}
		for i := range cons1 {
			if !constraintEqual(cons1[i], cons2[i]) {
				t.Fatalf("constraint %d changed: %+v vs %+v", i, cons1[i], cons2[i])
			}
		}
	})
}

// constraintEqual compares constraints under datum.Equal value semantics
// (an integral float literal legitimately reparses as an Int).
func constraintEqual(a, b Constraint) bool {
	if a.Table != b.Table || a.Column != b.Column ||
		a.LoStrict != b.LoStrict || a.HiStrict != b.HiStrict ||
		len(a.Eq) != len(b.Eq) || (a.Lo == nil) != (b.Lo == nil) || (a.Hi == nil) != (b.Hi == nil) {
		return false
	}
	for i := range a.Eq {
		if !datum.Equal(a.Eq[i], b.Eq[i]) {
			return false
		}
	}
	if a.Lo != nil && !datum.Equal(*a.Lo, *b.Lo) {
		return false
	}
	if a.Hi != nil && !datum.Equal(*a.Hi, *b.Hi) {
		return false
	}
	return true
}

// FuzzEvalWhere: evaluation of any accepted WHERE clause must not panic
// and must be deterministic for a fixed row.
func FuzzEvalWhere(f *testing.F) {
	f.Add("SELECT * FROM t WHERE a = 1 AND (b > 2 OR c IN (3, 4)) AND d BETWEEN -1 AND 9", int64(3))
	f.Add("DELETE FROM t WHERE x != 'q' OR y <= 0.5", int64(-7))
	f.Fuzz(func(t *testing.T, src string, cell int64) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		var where Expr
		switch s := stmt.(type) {
		case *Select:
			where = s.Where
		case *Update:
			where = s.Where
		case *Delete:
			where = s.Where
		default:
			return
		}
		row := func(c ColRef) datum.D {
			if len(c.Column) > 0 && c.Column[0]%2 == 0 {
				return datum.NewInt(cell)
			}
			return datum.NewString(c.Column)
		}
		r1 := EvalWhere(where, row)
		r2 := EvalWhere(where, row)
		if r1 != r2 {
			t.Fatal("EvalWhere not deterministic")
		}
	})
}

// TestFuzzSeedsRoundTrip runs the seed corpus through the fuzz property
// in normal `go test` runs (the fuzz engine only replays them under
// -fuzz), so regressions surface in CI's plain test job too.
func TestFuzzSeedsRoundTrip(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM t WHERE x = 1e+06 AND y != -0.5",
		"SELECT * FROM t WHERE s = 'a''b' AND f = 2.0",
		"UPDATE t SET a = 1.5, b = b + 2 WHERE k IN (-1, 0, 1)",
		"SELECT * FROM t WHERE f = 1e-3",
		"UPDATE t SET a = a -1 WHERE k = 3",
	} {
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		text := stmt.String()
		stmt2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", text, src, err)
		}
		if got := stmt2.String(); got != text {
			t.Errorf("fixpoint violated: %q -> %q -> %q", src, text, got)
		}
	}
}

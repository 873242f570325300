package sqlparse

import (
	"strings"
	"testing"

	"schism/internal/datum"
)

func TestPrepareFields(t *testing.T) {
	p := MustPrepare("UPDATE stock SET s_quantity = s_quantity - ?, s_remote = 1 WHERE s_key = ? AND s_w_id = ?")
	if p.Table() != "stock" || !p.Write() || p.NumParams() != 3 {
		t.Fatalf("table %q write %v params %d", p.Table(), p.Write(), p.NumParams())
	}
	if q := MustPrepare("SELECT * FROM item WHERE i_id = ?"); q.Write() || q.NumParams() != 1 {
		t.Fatalf("select: write %v params %d", q.Write(), q.NumParams())
	}
	for _, bad := range []string{"BEGIN", "COMMIT", "SELECT * FROM", "SELECT * FROM t LIMIT ?"} {
		if _, err := Prepare(bad); err == nil {
			t.Errorf("Prepare(%q) succeeded", bad)
		}
	}
}

// TestPrepareConstraints pins the skeleton against the extraction it
// replaces, shape by shape, including the aliasing the hot path relies on.
func TestPrepareConstraints(t *testing.T) {
	i := datum.NewInt
	for _, tc := range []struct {
		sql  string
		args []datum.D
	}{
		{"SELECT * FROM t WHERE k = ?", []datum.D{i(7)}},
		{"SELECT * FROM t WHERE k = ? AND w = 3 AND x != ?", []datum.D{i(7), i(1)}},
		{"SELECT * FROM t WHERE k IN (1, 2, 3)", nil},
		{"SELECT * FROM t WHERE k IN (?, 2, ?)", []datum.D{i(9), i(4)}},
		{"SELECT * FROM t WHERE w = ? AND k BETWEEN ? AND ? ORDER BY k DESC LIMIT 1", []datum.D{i(1), i(10), i(20)}},
		{"DELETE FROM t WHERE k > ? AND k <= ? AND j < 5 AND j >= ?", []datum.D{i(1), i(2), i(0)}},
		{"INSERT INTO t (a, b, c) VALUES (?, 0, ?)", []datum.D{i(1), datum.NewString("x")}},
		{"UPDATE t SET a = ?, b = b + ? WHERE t.k = ?", []datum.D{i(1), i(2), i(3)}},
		{"SELECT * FROM t WHERE a = ? OR b = ?", []datum.D{i(1), i(2)}},
		{"SELECT * FROM t WHERE a = ? AND b = NULL", []datum.D{i(1)}},
		{"SELECT * FROM t", nil},
		{"SELECT * FROM t JOIN u ON t.a = u.b WHERE u.c = ?", []datum.D{i(5)}},
	} {
		p, err := Prepare(tc.sql)
		if err != nil {
			t.Fatalf("Prepare(%q): %v", tc.sql, err)
		}
		checkBound(t, p, tc.args)
	}

	p := MustPrepare("SELECT * FROM t WHERE k = ? AND j > ?")
	args := []datum.D{i(1), i(2)}
	cons, ok := p.Constraints(nil, args)
	if !ok || len(cons) != 2 {
		t.Fatalf("cons %v ok %v", cons, ok)
	}
	if &cons[0].Eq[0] != &args[0] || cons[1].Lo != &args[1] {
		t.Error("one-value Eq list and range bound do not alias the argument slice")
	}
}

// bind is the reference the template fast paths (Prepared.Constraints,
// EvalBound, BindValue at the node) are held to: a copy of the statement
// with every placeholder replaced by its argument, i.e. the ordinary
// Statement that parsing the text with the arguments written in gives.
func bind(p *Prepared, args []datum.D) Statement {
	switch s := p.stmt.(type) {
	case *Select:
		c := *s
		c.Where = bindExpr(s.Where, args)
		return &c
	case *Update:
		c := *s
		c.Set = make([]Assignment, len(s.Set))
		for i, a := range s.Set {
			a.Value = BindValue(a.Value, args)
			c.Set[i] = a
		}
		c.Where = bindExpr(s.Where, args)
		return &c
	case *Insert:
		c := *s
		c.Values = bindList(s.Values, args)
		return &c
	case *Delete:
		c := *s
		c.Where = bindExpr(s.Where, args)
		return &c
	}
	return p.stmt // unreachable: Prepare admits only the four above
}

func bindExpr(e Expr, args []datum.D) Expr {
	switch x := e.(type) {
	case *And:
		return &And{L: bindExpr(x.L, args), R: bindExpr(x.R, args)}
	case *Or:
		return &Or{L: bindExpr(x.L, args), R: bindExpr(x.R, args)}
	case *Compare:
		c := *x
		c.Value = BindValue(x.Value, args)
		return &c
	case *In:
		return &In{Col: x.Col, Values: bindList(x.Values, args)}
	case *Between:
		return &Between{Col: x.Col, Lo: BindValue(x.Lo, args), Hi: BindValue(x.Hi, args)}
	}
	return e
}

// checkBound asserts that the fast paths over p's template agree with the
// materialised statement bind returns — constraints and WHERE verdicts —
// and returns that statement.
func checkBound(t testing.TB, p *Prepared, args []datum.D) Statement {
	t.Helper()
	bound := bind(p, args)
	table, want, wantOK := Constraints(bound)
	got, ok := p.Constraints(nil, args)
	if table != p.Table() || ok != wantOK || len(got) != len(want) {
		t.Fatalf("%q %v: constraints (%q %v %v), bound statement gives (%q %v %v)",
			p.SQL(), args, p.Table(), got, ok, table, want, wantOK)
	}
	for i := range want {
		if !constraintEqual(got[i], want[i]) {
			t.Fatalf("%q %v: constraint %d is %+v, want %+v", p.SQL(), args, i, got[i], want[i])
		}
	}
	row := func(c ColRef) datum.D {
		if len(c.Column) > 0 && c.Column[0]%2 == 0 {
			return datum.NewInt(int64(len(c.Column)))
		}
		return datum.NewString(c.Column)
	}
	if a, b := EvalBound(whereOf(p.Template()), args, row), EvalWhere(whereOf(bound), row); a != b {
		t.Fatalf("%q %v: EvalBound %v, EvalWhere of the bound statement %v", p.SQL(), args, a, b)
	}
	return bound
}

func whereOf(stmt Statement) Expr {
	switch s := stmt.(type) {
	case *Select:
		return s.Where
	case *Update:
		return s.Where
	case *Delete:
		return s.Where
	}
	return nil
}

func TestPrepareBadArguments(t *testing.T) {
	p := MustPrepare("SELECT * FROM t WHERE k = ? AND j BETWEEN ? AND ?")
	one := []datum.D{datum.NewInt(1)}
	if _, ok := p.Constraints(nil, one); ok {
		t.Error("Constraints ok with 1 argument for 3 placeholders")
	}
	for null := 0; null < 3; null++ {
		args := []datum.D{datum.NewInt(1), datum.NewInt(2), datum.NewInt(3)}
		args[null] = datum.NullD
		if _, ok := p.Constraints(nil, args); ok {
			t.Errorf("Constraints ok with NULL bound to placeholder %d", null)
		}
		checkBound(t, p, args)
	}
	// Unbound, the template is what Parse makes of the text: unroutable.
	if _, _, ok := Constraints(p.Template()); ok {
		t.Error("Constraints of an unbound template is ok")
	}
	if got, want := p.Template().String(), MustParse(p.SQL()).String(); got != want {
		t.Errorf("template renders %q, Parse of the same text %q", got, want)
	}
}

func TestPrepareConstraintsAllocs(t *testing.T) {
	p := MustPrepare("SELECT * FROM t WHERE k = ? AND w = ?")
	args := []datum.D{datum.NewInt(1), datum.NewInt(2)}
	if n := testing.AllocsPerRun(100, func() { p.Constraints(nil, args) }); n > 1 {
		t.Errorf("Prepared.Constraints allocates %v times, want 1 (the result)", n)
	}
	buf := make([]Constraint, 0, p.NumConstraints())
	if n := testing.AllocsPerRun(100, func() { p.Constraints(buf, args) }); n > 0 {
		t.Errorf("Prepared.Constraints into caller storage allocates %v times, want 0", n)
	}
}

// parameterise rewrites the canonical rendering of a statement with every
// literal replaced by a placeholder, returning the literals in order. The
// count after LIMIT is syntax, not a literal.
func parameterise(t testing.TB, text string) (string, []datum.D) {
	toks, err := lex(text, nil, false)
	if err != nil {
		t.Fatalf("lex(%q): %v", text, err)
	}
	var sb strings.Builder
	var args []datum.D
	for i, tok := range toks {
		literal := tok.kind == tokNumber || tok.kind == tokString
		if literal && i > 0 && toks[i-1].kind == tokIdent && strings.EqualFold(toks[i-1].text, "LIMIT") {
			literal = false
		}
		switch {
		case literal:
			v, err := (&parser{toks: []token{tok, {kind: tokEOF}}}).literal()
			if err != nil {
				t.Fatalf("literal %q of %q: %v", tok.text, text, err)
			}
			args = append(args, v)
			sb.WriteString("? ")
		default:
			sb.WriteString(tok.text + " ")
		}
	}
	return sb.String(), args
}

// FuzzPrepareBind: for any statement Parse accepts, swapping each literal
// for a placeholder and binding it back changes nothing — not the
// rendering, not the routing constraints, not a WHERE verdict — and wrong
// argument counts or NULL arguments are refused or unroutable, never a
// panic.
func FuzzPrepareBind(f *testing.F) {
	for _, seed := range []string{
		"SELECT * FROM stock WHERE s_w_id = 3 AND s_i_id IN (1, 2, 5)",
		"SELECT * FROM t WHERE a BETWEEN 5 AND 9 OR b = 'x''y'",
		"UPDATE stock SET s_qty = s_qty - 10, s_remote = 1 WHERE s_w_id = 2 AND s_i_id = 77",
		"INSERT INTO history (h_id, h_amount, h_data) VALUES (42, 3.25, 'pay')",
		"DELETE FROM new_order WHERE no_o_id <= 2100 AND no_w_id > -1",
		"SELECT c_id FROM customer WHERE c_w_id = 1 ORDER BY c_last DESC LIMIT 10",
		"SELECT * FROM t WHERE ql = ? AND x = NULL",
		"SELECT * FROM orders JOIN lines ON orders.o_id = lines.l_o_id WHERE o_id >= 7 FOR UPDATE",
		"BEGIN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		text := stmt.String()
		qtext, args := parameterise(t, text)
		p, err := Prepare(qtext)
		switch stmt.(type) {
		case *Select, *Update, *Insert, *Delete:
		default:
			if err == nil {
				t.Fatalf("Prepare accepted %q", qtext)
			}
			return
		}
		if err != nil {
			t.Fatalf("Prepare(%q) of accepted %q: %v", qtext, text, err)
		}
		if p.NumParams() != len(args) {
			t.Fatalf("%q: %d placeholders for %d literals", qtext, p.NumParams(), len(args))
		}
		if got := checkBound(t, p, args).String(); got != text {
			t.Fatalf("bound rendering %q, want %q (via %q)", got, text, qtext)
		}
		if len(args) == 0 {
			return
		}
		if _, ok := p.Constraints(nil, args[1:]); ok {
			t.Fatalf("%q: Constraints ok with %d arguments", qtext, len(args)-1)
		}
		for i := range args {
			withNull := append([]datum.D(nil), args...)
			withNull[i] = datum.NullD
			checkBound(t, p, withNull)
		}
	})
}

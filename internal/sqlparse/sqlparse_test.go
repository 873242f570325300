package sqlparse

import (
	"strings"
	"testing"
	"testing/quick"

	"schism/internal/datum"
)

func TestParseSelect(t *testing.T) {
	s, err := Parse("SELECT * FROM simplecount WHERE id = 42")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := s.(*Select)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if sel.Table != "simplecount" || len(sel.Cols) != 0 {
		t.Errorf("bad select: %+v", sel)
	}
	cmp, ok := sel.Where.(*Compare)
	if !ok || cmp.Col.Column != "id" || cmp.Op != OpEq || cmp.Value.I != 42 {
		t.Errorf("bad where: %v", sel.Where)
	}
}

func TestParseSelectFull(t *testing.T) {
	s := MustParse("SELECT a, b FROM t WHERE x >= 5 AND y < 10 ORDER BY a DESC LIMIT 7 FOR UPDATE").(*Select)
	if len(s.Cols) != 2 || s.Cols[0].Column != "a" {
		t.Errorf("cols: %v", s.Cols)
	}
	if s.OrderBy == nil || s.OrderBy.Column != "a" || !s.Desc {
		t.Errorf("order by: %v desc=%v", s.OrderBy, s.Desc)
	}
	if s.Limit != 7 || !s.ForUpdate {
		t.Errorf("limit=%d forUpdate=%v", s.Limit, s.ForUpdate)
	}
	and, ok := s.Where.(*And)
	if !ok {
		t.Fatalf("where: %T", s.Where)
	}
	l := and.L.(*Compare)
	if l.Op != OpGe || l.Value.I != 5 {
		t.Errorf("left: %v", l)
	}
}

func TestParseJoin(t *testing.T) {
	s := MustParse("SELECT u.name FROM users JOIN trust ON users.id = trust.source WHERE trust.target = 9").(*Select)
	if s.Join == nil || s.Join.Table != "trust" {
		t.Fatalf("join: %+v", s.Join)
	}
	if s.Join.Left.Table != "users" || s.Join.Right.Column != "source" {
		t.Errorf("join cols: %v %v", s.Join.Left, s.Join.Right)
	}
}

func TestParseUpdate(t *testing.T) {
	s := MustParse("UPDATE account SET bal = bal - 1000 WHERE name = 'carlo'").(*Update)
	if s.Table != "account" || len(s.Set) != 1 {
		t.Fatalf("update: %+v", s)
	}
	a := s.Set[0]
	if a.Col != "bal" || a.SelfOp != '-' || a.Value.I != 1000 {
		t.Errorf("assignment: %+v", a)
	}
	w := s.Where.(*Compare)
	if w.Value.S != "carlo" {
		t.Errorf("where literal: %v", w.Value)
	}

	// Without a space the lexer folds "-1" into one number; it still
	// reads as the operator and the magnitude, and renders with the space.
	for _, src := range []string{"UPDATE t SET a = a -1", "UPDATE t SET a = a - 1"} {
		s := MustParse(src).(*Update)
		if a := s.Set[0]; a.SelfOp != '-' || a.Value.I != 1 {
			t.Errorf("%s: assignment %+v", src, a)
		}
		if got := s.String(); got != "UPDATE t SET a = a - 1" {
			t.Errorf("%s renders %q", src, got)
		}
	}
	if a := MustParse("UPDATE t SET a = a -2.5, b = b - -3").(*Update).Set; a[0].SelfOp != '-' || a[0].Value.F != 2.5 ||
		a[1].SelfOp != '-' || a[1].Value.I != -3 {
		t.Errorf("assignments %+v", a)
	}
}

func TestParseInsertDelete(t *testing.T) {
	ins := MustParse("INSERT INTO users (id, name, rep) VALUES (7, 'bob', 1.5)").(*Insert)
	if len(ins.Cols) != 3 || ins.Values[2].K != datum.Float {
		t.Errorf("insert: %+v", ins)
	}
	del := MustParse("DELETE FROM t WHERE id IN (1, 2, 3)").(*Delete)
	in := del.Where.(*In)
	if len(in.Values) != 3 {
		t.Errorf("in list: %v", in.Values)
	}
}

func TestParseBetweenOrNegative(t *testing.T) {
	s := MustParse("SELECT * FROM t WHERE k BETWEEN 10 AND 20 OR k = -5").(*Select)
	or, ok := s.Where.(*Or)
	if !ok {
		t.Fatalf("where: %T", s.Where)
	}
	b := or.L.(*Between)
	if b.Lo.I != 10 || b.Hi.I != 20 {
		t.Errorf("between: %v", b)
	}
	c := or.R.(*Compare)
	if c.Value.I != -5 {
		t.Errorf("negative literal: %v", c.Value)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"SELEC * FROM t",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"INSERT INTO t (a, b) VALUES (1)",
		"UPDATE t SET a = b + 1 WHERE id = 1", // cross-column SET
		"SELECT * FROM t WHERE 'unterminated",
		"SELECT * FROM t; SELECT * FROM u",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}

	// A bad literal is named with its own text and position, not the
	// token after it.
	for _, tc := range []struct{ src, want string }{
		{"SELECT * FROM t WHERE a = 9223372036854775808 AND b = 1",
			`bad int "9223372036854775808" (at "9223372036854775808", pos 26)`},
		{"SELECT * FROM t WHERE a = 1.5.5", `bad float "1.5.5" (at "1.5.5", pos 26)`},
		{"SELECT * FROM t LIMIT 1.5", `bad LIMIT "1.5" (at "1.5", pos 22)`},
	} {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	for _, src := range []string{
		"SELECT * FROM t WHERE id = 5",
		"SELECT a, b FROM t WHERE x >= 1 AND y < 2 ORDER BY a LIMIT 3",
		"UPDATE t SET a = 10, b = b + 1 WHERE id = 4",
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"DELETE FROM t WHERE k BETWEEN 1 AND 9",
	} {
		s1 := MustParse(src)
		s2 := MustParse(s1.String())
		if s1.String() != s2.String() {
			t.Errorf("round trip changed:\n  %s\n  %s", s1, s2)
		}
	}
}

func TestWhereColumns(t *testing.T) {
	uses := WhereColumns(MustParse("SELECT * FROM stock WHERE s_w_id = 1 AND s_i_id IN (2, 3)"))
	if len(uses) != 2 {
		t.Fatalf("uses: %v", uses)
	}
	if uses[0].Table != "stock" || uses[0].Column != "s_w_id" {
		t.Errorf("use 0: %+v", uses[0])
	}
	// INSERT counts all inserted columns.
	uses = WhereColumns(MustParse("INSERT INTO t (a, b) VALUES (1, 2)"))
	if len(uses) != 2 {
		t.Errorf("insert uses: %v", uses)
	}
	// Join predicates count on both tables.
	uses = WhereColumns(MustParse("SELECT * FROM r JOIN s ON r.x = s.y WHERE r.z = 1"))
	found := map[string]bool{}
	for _, u := range uses {
		found[u.Table+"."+u.Column] = true
	}
	for _, want := range []string{"r.x", "s.y", "r.z"} {
		if !found[want] {
			t.Errorf("missing use %s in %v", want, uses)
		}
	}
}

func TestConstraints(t *testing.T) {
	tbl, cons, ok := Constraints(MustParse("SELECT * FROM t WHERE w_id = 3 AND d_id >= 2 AND d_id < 5"))
	if !ok || tbl != "t" {
		t.Fatalf("ok=%v table=%q", ok, tbl)
	}
	if len(cons) != 3 {
		t.Fatalf("cons: %+v", cons)
	}
	if cons[0].Column != "w_id" || len(cons[0].Eq) != 1 || cons[0].Eq[0].I != 3 {
		t.Errorf("eq constraint: %+v", cons[0])
	}
	if cons[1].Lo == nil || cons[1].Lo.I != 2 || cons[1].LoStrict {
		t.Errorf("ge constraint: %+v", cons[1])
	}
	if cons[2].Hi == nil || !cons[2].HiStrict {
		t.Errorf("lt constraint: %+v", cons[2])
	}

	// OR is unroutable.
	if _, _, ok := Constraints(MustParse("SELECT * FROM t WHERE a = 1 OR b = 2")); ok {
		t.Error("OR should be unroutable")
	}
	// Placeholders are unroutable.
	if _, _, ok := Constraints(MustParse("SELECT * FROM t WHERE id = ?")); ok {
		t.Error("placeholder should be unroutable")
	}
	// IN produces an Eq list.
	_, cons, ok = Constraints(MustParse("SELECT * FROM t WHERE id IN (1, 2)"))
	if !ok || len(cons[0].Eq) != 2 {
		t.Errorf("in: %+v ok=%v", cons, ok)
	}
	// INSERT constrains every column.
	_, cons, ok = Constraints(MustParse("INSERT INTO t (a, b) VALUES (1, 2)"))
	if !ok || len(cons) != 2 {
		t.Errorf("insert: %+v ok=%v", cons, ok)
	}
}

func TestEvalWhere(t *testing.T) {
	row := map[string]datum.D{
		"id":  datum.NewInt(7),
		"bal": datum.NewFloat(99.5),
		"nm":  datum.NewString("bob"),
	}
	lookup := func(c ColRef) datum.D { return row[c.Column] }
	for _, tc := range []struct {
		src  string
		want bool
	}{
		{"SELECT * FROM t WHERE id = 7", true},
		{"SELECT * FROM t WHERE id != 7", false},
		{"SELECT * FROM t WHERE bal < 100", true},
		{"SELECT * FROM t WHERE bal >= 100", false},
		{"SELECT * FROM t WHERE nm = 'bob' AND id > 5", true},
		{"SELECT * FROM t WHERE nm = 'alice' OR id > 5", true},
		{"SELECT * FROM t WHERE id BETWEEN 7 AND 9", true},
		{"SELECT * FROM t WHERE id IN (1, 2, 3)", false},
		{"SELECT * FROM t WHERE id IN (6, 7)", true},
	} {
		e := MustParse(tc.src).(*Select).Where
		if got := EvalWhere(e, lookup); got != tc.want {
			t.Errorf("%s = %v, want %v", tc.src, got, tc.want)
		}
	}
	if !EvalWhere(nil, lookup) {
		t.Error("nil WHERE must be true")
	}
}

// The statements of a NewOrder whose parse cost is pinned and measured.
var (
	orderLineInsert = "INSERT INTO order_line (ol_key, ol_w_id, ol_d_id, ol_o_id, ol_number, ol_i_id, ol_supply_w_id, ol_amount) VALUES (300150001, 1, 5, 3001, 1, 77, 2, 41.25)"
	stockUpdate     = "UPDATE stock SET s_quantity = s_quantity - 1, s_ytd = s_ytd + 1 WHERE s_w_id = 2 AND s_i_id = 77"
	customerSelect  = "SELECT * FROM customer WHERE c_w_id = 1 AND c_d_id = 5 AND c_id = 9"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestParseAllocs pins what a parse allocates to its statement: the token
// buffer comes from a pool and punctuation tokens are substrings of the
// source.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, tc := range []struct {
		src string
		max float64
	}{
		{orderLineInsert, 9},
		{stockUpdate, 6},
		{customerSelect, 6},
	} {
		MustParse(tc.src)
		if n := testing.AllocsPerRun(100, func() { MustParse(tc.src) }); n > tc.max {
			t.Errorf("Parse(%.30q...) allocates %v objects, want <= %v", tc.src, n, tc.max)
		}
	}
}

// TestPooledBufferHoldsNoText checks that a token buffer goes back to the
// pool cleared, so the pool keeps no SQL text reachable.
func TestPooledBufferHoldsNoText(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	MustParse(orderLineInsert)
	buf := tokenPool.Get().(*[]token)
	defer tokenPool.Put(buf)
	if cap(*buf) == 0 {
		t.Skip("two collections emptied the pool before the buffer was inspected")
	}
	for i, tok := range (*buf)[:cap(*buf)] {
		if tok != (token{}) {
			t.Fatalf("pooled token %d is %+v, want zero", i, tok)
		}
	}
}

func BenchmarkParse(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"insert-order_line", orderLineInsert},
		{"update-stock", stockUpdate},
		{"select-customer", customerSelect},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(bc.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Property: printing and reparsing a statement is a fixpoint.
func TestRoundTripProperty(t *testing.T) {
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	f := func(col uint8, opIdx uint8, val int32) bool {
		c := string(rune('a' + col%26))
		src := "SELECT * FROM t WHERE " + c + " " + ops[int(opIdx)%len(ops)] + " " + itoa64(int64(val))
		s1, err := Parse(src)
		if err != nil {
			return false
		}
		s2, err := Parse(s1.String())
		if err != nil {
			return false
		}
		return s1.String() == s2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func itoa64(v int64) string {
	return strings.TrimSpace(datum.NewInt(v).String())
}

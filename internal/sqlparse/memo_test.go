package sqlparse

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// memoPairs are statements whose shapes sit next to a rule of the shape
// key: each pair differs in a literal, and the two must be told apart (or
// shared) exactly as the parser tells them apart.
var memoPairs = [][2]string{
	// LIMIT takes an int, never a float.
	{"SELECT * FROM t WHERE a = 1 LIMIT 1", "SELECT * FROM t WHERE a = 1 LIMIT 1.5"},
	// A folded negative splits again; its magnitude may overflow.
	{"UPDATE t SET a = a -1 WHERE k = 2", "UPDATE t SET a = a -9223372036854775808 WHERE k = 2"},
	{"SELECT * FROM t WHERE a = -9223372036854775808", "SELECT * FROM t WHERE a = -1"},
	// An int that overflows, a float that overflows, a malformed float.
	{"SELECT * FROM t WHERE a = 9223372036854775807", "SELECT * FROM t WHERE a = 9223372036854775808"},
	{"SELECT * FROM t WHERE a = 1e9", "SELECT * FROM t WHERE a = 1e999"},
	{"SELECT * FROM t WHERE a = 1.5", "SELECT * FROM t WHERE a = 1.5.5"},
	// '' escapes, in any string of the shape.
	{"SELECT * FROM t WHERE s = 'it''s' AND u = 'x'", "SELECT * FROM t WHERE s = 'plain' AND u = ''''"},
	// Keywords in any letter case.
	{"select * from t where a = 1 and b = 2", "SELECT * FROM t WHERE a = 1 AND b = 2"},
	// An unterminated string fails in the lexer.
	{"SELECT * FROM t WHERE s = 'open", "SELECT * FROM t WHERE s = 'shut'"},
	// IN lists of different lengths are different shapes.
	{"SELECT * FROM t WHERE a IN (1, 2)", "SELECT * FROM t WHERE a IN (1, 2, 3)"},
	{"INSERT INTO t (a, b, c) VALUES (1, 'x', 2.5)", "INSERT INTO t (a, b, c) VALUES (7, 'y''z', 1e3)"},
	{"DELETE FROM t WHERE a BETWEEN 1 AND 5 OR t.b = ?", "DELETE FROM t WHERE a BETWEEN 1.5 AND 5 OR t.b = ?"},
}

// directColumns is the memo's oracle: WhereColumns of a fresh parse.
func directColumns(src string) ([]ColumnUse, bool) {
	stmt, err := ParseFresh(src)
	if err != nil {
		return nil, false
	}
	return WhereColumns(stmt), true
}

// memoTwin rewrites every literal that appendShape reduces to its kind
// with another of that kind: ints become 7, floats 7e0 and strings 'z'.
// No rewrite changes how the text around it lexes. It reports false when
// src does not lex.
func memoTwin(src string) (string, bool) {
	toks, err := lex(src, nil, true)
	if err != nil {
		return "", false
	}
	var sb strings.Builder
	last := 0
	for _, tok := range toks {
		var with string
		end := tok.pos + len(tok.text)
		switch shape := appendShape(nil, []token{tok}); shape[0] {
		case 'i':
			with = "7"
		case 'f':
			with = "7e0"
		case 's':
			with, end = "'z'", end+2 // the raw text is the body between the quotes
		default:
			continue
		}
		sb.WriteString(src[last:tok.pos])
		sb.WriteString(with)
		last = end
	}
	sb.WriteString(src[last:])
	return sb.String(), true
}

// checkMemo asks a shared memo for src and then for its twin. Both answers
// must equal a fresh parse's, and the twin must be a shape the memo has
// already seen.
func checkMemo(t *testing.T, m *ColumnMemo, src string) {
	t.Helper()
	got, ok := m.WhereColumns(src)
	want, wantOK := directColumns(src)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: memo gives %v, %v; a fresh parse %v, %v", src, got, ok, want, wantOK)
	}
	twin, lexes := memoTwin(src)
	if !lexes {
		return
	}
	shapes := len(m.shapes)
	got, ok = m.WhereColumns(twin)
	want, wantOK = directColumns(twin)
	if ok != wantOK || !reflect.DeepEqual(got, want) {
		t.Fatalf("twin %q of %q: memo gives %v, %v; a fresh parse %v, %v", twin, src, got, ok, want, wantOK)
	}
	if len(m.shapes) != shapes {
		t.Fatalf("twin %q of %q is a new shape", twin, src)
	}
}

// TestColumnMemoPairs holds one memo to a fresh parse over every pair,
// both orders, so that a pair wrongly sharing a shape shows whichever
// statement comes first.
func TestColumnMemoPairs(t *testing.T) {
	var forward, backward ColumnMemo
	for _, p := range memoPairs {
		checkMemo(t, &forward, p[0])
		checkMemo(t, &forward, p[1])
		checkMemo(t, &backward, p[1])
		checkMemo(t, &backward, p[0])
	}
}

// TestColumnMemoShapes: Shapes reports each parsed shape once, with the
// columns WhereColumns gave its statements, and skips unparsable ones.
func TestColumnMemoShapes(t *testing.T) {
	var m ColumnMemo
	srcs := []string{stockUpdate, customerSelect, orderLineInsert, stockUpdate, "SELECT FROM"}
	want := map[string]bool{}
	for _, src := range srcs {
		if uses, ok := m.WhereColumns(src); ok {
			want[fmt.Sprint(uses)] = true
		}
	}
	got := map[string]bool{}
	n := 0
	m.Shapes(func(uses []ColumnUse) {
		got[fmt.Sprint(uses)] = true
		n++
	})
	if n != 3 || !reflect.DeepEqual(got, want) {
		t.Errorf("Shapes gave %d shapes %v, want 3: %v", n, got, want)
	}
}

// TestColumnMemoAllocs pins a memo hit to no allocation: the tokens go
// into a pooled buffer, string literals are not copied and the shape key
// is built in the memo's own buffer.
func TestColumnMemoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	var m ColumnMemo
	for _, src := range []string{orderLineInsert, stockUpdate, customerSelect, memoPairs[6][0]} {
		m.WhereColumns(src)
		if n := testing.AllocsPerRun(100, func() { m.WhereColumns(src) }); n != 0 {
			t.Errorf("memo hit for %.30q... allocates %v objects, want 0", src, n)
		}
	}
}

func FuzzColumnMemo(f *testing.F) {
	for _, p := range memoPairs {
		f.Add(p[0])
		f.Add(p[1])
	}
	f.Add(orderLineInsert)
	f.Add(stockUpdate)
	f.Add(customerSelect)
	f.Fuzz(func(t *testing.T, src string) {
		var m ColumnMemo
		checkMemo(t, &m, src)
	})
}

// insertStmts are INSERTs next to a rule of the shape key or of a value's
// reading: a negative literal stays in the key, a doubled quote is undone
// in the value, and a count mismatch or an overflowing key fails.
var insertStmts = []string{
	"INSERT INTO t (k, a) VALUES (-5, 3)",
	"INSERT INTO t (k, s) VALUES (1, 'it''s')",
	"INSERT INTO t (k, s, u) VALUES (1, '', '''')",
	"INSERT INTO t (k, a, s) VALUES (1, NULL, ?)",
	"INSERT INTO t (k, a) VALUES (1, 2, 3)",
	"INSERT INTO t (k, a) VALUES (1.5e3, -0.25);",
	"insert into T (K) values (9223372036854775807)",
	"INSERT INTO t (k) VALUES (9223372036854775808)",
	"INSERT INTO t (k) VALUES (1) trailing",
	orderLineInsert,
}

// directInsert is the InsertMemo's oracle: a fresh parse, when it gives
// an *Insert.
func directInsert(src string) (Insert, bool) {
	stmt, err := ParseFresh(src)
	ins, ok := stmt.(*Insert)
	if err != nil || !ok {
		return Insert{}, false
	}
	return *ins, true
}

// checkInsertMemo asks a shared memo for src and then for its twin (see
// memoTwin). Both answers must equal a fresh parse's, no string value may
// point into the statement's text, and the twin must be a shape the memo
// has already seen.
func checkInsertMemo(t *testing.T, m *InsertMemo, src string) {
	t.Helper()
	check := func(src string) {
		t.Helper()
		got, ok := m.Insert(src)
		want, wantOK := directInsert(src)
		if ok != wantOK || ok && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: memo gives %+v, %v; a fresh parse %+v, %v", src, got, ok, want, wantOK)
		}
		text := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		for _, v := range got.Values {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(v.S))); v.S != "" && p >= text && p < text+uintptr(len(src)) {
				t.Fatalf("%q: value %q points into the statement's text", src, v.S)
			}
		}
	}
	check(src)
	twin, lexes := memoTwin(src)
	if !lexes {
		return
	}
	shapes := len(m.shapes)
	check(twin)
	if len(m.shapes) != shapes {
		t.Fatalf("twin %q of %q is a new shape", twin, src)
	}
}

// TestInsertMemoMatchesParse holds one memo to a fresh parse over the
// INSERTs above and every memo pair, both orders.
func TestInsertMemoMatchesParse(t *testing.T) {
	var forward, backward InsertMemo
	for _, src := range insertStmts {
		checkInsertMemo(t, &forward, src)
	}
	for _, p := range memoPairs {
		checkInsertMemo(t, &forward, p[0])
		checkInsertMemo(t, &forward, p[1])
		checkInsertMemo(t, &backward, p[1])
		checkInsertMemo(t, &backward, p[0])
	}
}

// TestInsertMemoAllocs pins a memo hit to one allocation per string value
// and none besides: the tokens go into a pooled buffer, the values into
// the memo's own.
func TestInsertMemoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	var m InsertMemo
	for _, tc := range []struct {
		src     string
		strings float64
	}{
		{orderLineInsert, 0},
		{"INSERT INTO history (h_id, h_w_id, h_data) VALUES (7, 1, 'paid')", 1},
		{"INSERT INTO t (k, s, u) VALUES (1, 'it''s', 'x')", 2},
	} {
		m.Insert(tc.src)
		if n := testing.AllocsPerRun(100, func() { m.Insert(tc.src) }); n != tc.strings {
			t.Errorf("memo hit for %.30q... allocates %v objects, want %v", tc.src, n, tc.strings)
		}
	}
}

func FuzzInsertMemo(f *testing.F) {
	for _, src := range insertStmts {
		f.Add(src)
	}
	for _, p := range memoPairs {
		f.Add(p[0])
		f.Add(p[1])
	}
	f.Fuzz(func(t *testing.T, src string) {
		var m InsertMemo
		checkInsertMemo(t, &m, src)
	})
}

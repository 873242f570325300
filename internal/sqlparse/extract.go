package sqlparse

import (
	"strings"

	"schism/internal/datum"
)

// ColumnUse records one appearance of a column in a WHERE clause, used by
// the explanation phase to mine the frequent attribute set (§5.2).
type ColumnUse struct {
	Table  string // resolved table name ("" if ambiguous)
	Column string
	Op     CompareOp
}

// WhereColumns lists every column referenced in the statement's WHERE
// clause (and join predicates), resolving unqualified references to the
// statement's primary table. IN and BETWEEN report OpEq / range ops.
func WhereColumns(stmt Statement) []ColumnUse {
	var table string
	var where Expr
	var join *Join
	switch s := stmt.(type) {
	case *Select:
		table, where, join = s.Table, s.Where, s.Join
	case *Update:
		table, where = s.Table, s.Where
	case *Delete:
		table, where = s.Table, s.Where
	case *Insert:
		// INSERT names every inserted column with an equality "use".
		uses := make([]ColumnUse, 0, len(s.Cols))
		for _, c := range s.Cols {
			uses = append(uses, ColumnUse{Table: s.Table, Column: c, Op: OpEq})
		}
		return uses
	default:
		return nil
	}
	var uses []ColumnUse
	resolve := func(c ColRef) string {
		if c.Table != "" {
			return c.Table
		}
		return table
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *And:
			walk(x.L)
			walk(x.R)
		case *Or:
			walk(x.L)
			walk(x.R)
		case *Compare:
			uses = append(uses, ColumnUse{Table: resolve(x.Col), Column: x.Col.Column, Op: x.Op})
			if x.Col2 != nil {
				uses = append(uses, ColumnUse{Table: resolve(*x.Col2), Column: x.Col2.Column, Op: x.Op})
			}
		case *In:
			uses = append(uses, ColumnUse{Table: resolve(x.Col), Column: x.Col.Column, Op: OpEq})
		case *Between:
			uses = append(uses, ColumnUse{Table: resolve(x.Col), Column: x.Col.Column, Op: OpLe})
		}
	}
	if where != nil {
		walk(where)
	}
	if join != nil {
		uses = append(uses,
			ColumnUse{Table: resolve(join.Left), Column: join.Left.Column, Op: OpEq},
			ColumnUse{Table: resolve(join.Right), Column: join.Right.Column, Op: OpEq})
	}
	return uses
}

// ColumnMemo answers WhereColumns for statement texts and parses each
// statement shape once: texts whose tokens differ only in literals the
// parser treats alike (appendShape) share one answer. A trace repeats a
// few templates, so mining one parses a few dozen statements, not every
// one. The zero value is ready to use; a memo is not safe for concurrent
// use, and it keeps the text of the first statement of every shape
// reachable.
type ColumnMemo struct {
	key    []byte
	shapes map[string]memoShape
}

type memoShape struct {
	uses []ColumnUse
	ok   bool
}

// WhereColumns returns WhereColumns(Parse(src)), and false where Parse
// fails. The slice is shared by every statement of src's shape and must
// not be modified. A statement of a shape seen before allocates nothing.
func (m *ColumnMemo) WhereColumns(src string) ([]ColumnUse, bool) {
	buf := tokenPool.Get().(*[]token)
	toks, err := lex(src, *buf, true)
	var shape memoShape
	if err == nil {
		m.key = appendShape(m.key[:0], toks)
		var hit bool
		if shape, hit = m.shapes[string(m.key)]; !hit {
			// The tokens are still unparsed: parse them, not src again.
			if stmt, _, err := parseTokens(toks, src, false); err == nil {
				shape = memoShape{uses: WhereColumns(stmt), ok: true}
			}
			if m.shapes == nil {
				m.shapes = make(map[string]memoShape)
			}
			m.shapes[string(m.key)] = shape
		}
	}
	clear(toks)
	*buf = toks[:0]
	tokenPool.Put(buf)
	return shape.uses, shape.ok
}

// Shapes calls f with the columns of every statement shape the memo has
// parsed, in no particular order; a shape that failed to parse is
// skipped. f must not modify the slice.
func (m *ColumnMemo) Shapes(f func(uses []ColumnUse)) {
	for _, shape := range m.shapes {
		if shape.ok {
			f(shape.uses)
		}
	}
}

// InsertMemo reads INSERT statements for the rows they carry and parses
// each statement shape once, as ColumnMemo does: texts whose tokens differ
// only in literals the parser treats alike (appendShape) share the table,
// the column list and the place of every value's literal among the
// tokens. A statement's values are then read from its own literal tokens.
// A trace's INSERTs repeat a few templates, so reading them all parses a
// few statements. The zero value is ready to use; a memo is not safe for
// concurrent use, and it keeps no statement's text reachable.
type InsertMemo struct {
	key    []byte
	vals   []datum.D
	shapes map[string]insertShape
}

type insertShape struct {
	table string
	cols  []string
	lits  []int32 // token index of each value's literal
	ok    bool    // the shape parses to an *Insert
}

// Insert returns *Parse(src) when Parse(src) is an *Insert, and false
// otherwise. Cols is shared by every statement of src's shape and Values
// is the memo's buffer, overwritten by the next call; neither may be
// modified. A string value is a copy, never a substring of src. A
// statement of a shape seen before allocates only its string values.
func (m *InsertMemo) Insert(src string) (Insert, bool) {
	buf := tokenPool.Get().(*[]token)
	toks, err := lex(src, *buf, true)
	var ins Insert
	var ok bool
	if err == nil {
		m.key = appendShape(m.key[:0], toks)
		shape, hit := m.shapes[string(m.key)]
		if !hit {
			shape = newInsertShape(toks, src)
			if m.shapes == nil {
				m.shapes = make(map[string]insertShape)
			}
			m.shapes[string(m.key)] = shape
		}
		if ok = shape.ok; ok {
			m.vals = m.vals[:0]
			for _, at := range shape.lits {
				m.vals = append(m.vals, literalValue(toks[at]))
			}
			ins = Insert{Table: shape.table, Cols: shape.cols, Values: m.vals}
		}
	}
	clear(toks)
	*buf = toks[:0]
	tokenPool.Put(buf)
	return ins, ok
}

// newInsertShape parses the raw tokens of the first statement of a shape.
// Its names are copied, so the shape does not pin the statement's text.
func newInsertShape(toks []token, src string) insertShape {
	var lits []int32
	p := parser{toks: toks, src: src, lits: &lits}
	stmt, err := p.parseAll()
	ins, isInsert := stmt.(*Insert)
	if err != nil || !isInsert {
		return insertShape{}
	}
	cols := make([]string, len(ins.Cols))
	for i, c := range ins.Cols {
		cols[i] = strings.Clone(c)
	}
	return insertShape{table: strings.Clone(ins.Table), cols: cols, lits: lits, ok: true}
}

// literalValue is the value literal() reads from a raw-lexed token of a
// statement that parses: a number, a string, a placeholder or NULL.
func literalValue(t token) datum.D {
	switch t.kind {
	case tokNumber:
		v, _ := numberValue(t.text)
		return v
	case tokString:
		return datum.NewString(unquote(t.text, strings.Contains(t.text, "''")))
	}
	return datum.NullD
}

// Constraint is a routing-relevant restriction on a single column extracted
// from a conjunctive WHERE clause (App. C.2).
type Constraint struct {
	Table  string
	Column string
	// Eq holds the allowed values when the constraint is an equality or IN
	// list; nil when the constraint is a range.
	Eq []datum.D
	// Lo/Hi bound range constraints; either may be nil (unbounded).
	// LoStrict/HiStrict mark exclusive bounds.
	Lo, Hi             *datum.D
	LoStrict, HiStrict bool
}

// Constraints extracts per-column constraints from a statement's WHERE
// clause. Only the top-level conjunction is analysed; any OR makes the
// statement unroutable-by-predicate and yields ok=false, telling the router
// to broadcast (the paper's fallback, App. C.2). Placeholder values (?)
// also yield ok=false.
func Constraints(stmt Statement) (table string, cons []Constraint, ok bool) {
	return constraints(stmt, nil)
}

// constraints is Constraints. With ne non-nil it extracts a prepared
// statement's skeleton: a numbered placeholder counts as a known value and
// stays in the result for Prepared.Constraints to replace with its
// argument, and ne collects the placeholders compared with != — they feed
// no constraint, but a NULL there still makes the statement unroutable.
func constraints(stmt Statement, ne *[]int) (table string, cons []Constraint, ok bool) {
	unknown := func(v datum.D) bool {
		if _, param := paramIndex(v); param && ne != nil {
			return false
		}
		return v.IsNull()
	}
	var where Expr
	switch s := stmt.(type) {
	case *Select:
		table, where = s.Table, s.Where
	case *Update:
		table, where = s.Table, s.Where
	case *Delete:
		table, where = s.Table, s.Where
	case *Insert:
		cons = make([]Constraint, 0, len(s.Cols))
		for i, c := range s.Cols {
			if unknown(s.Values[i]) {
				return s.Table, nil, false
			}
			cons = append(cons, Constraint{Table: s.Table, Column: c, Eq: []datum.D{s.Values[i]}})
		}
		return s.Table, cons, true
	default:
		return "", nil, false
	}
	if where == nil {
		return table, nil, true
	}
	ok = true
	var walk func(e Expr)
	walk = func(e Expr) {
		if !ok {
			return
		}
		switch x := e.(type) {
		case *And:
			walk(x.L)
			walk(x.R)
		case *Or:
			ok = false
		case *Compare:
			if x.Col2 != nil {
				// Join predicate: constrains no literal value.
				return
			}
			if unknown(x.Value) {
				ok = false
				return
			}
			tbl := x.Col.Table
			if tbl == "" {
				tbl = table
			}
			c := Constraint{Table: tbl, Column: x.Col.Column}
			v := x.Value
			switch x.Op {
			case OpEq:
				c.Eq = []datum.D{v}
			case OpNe:
				if j, param := paramIndex(v); param {
					*ne = append(*ne, j)
				}
				return // not routing-relevant
			case OpLt:
				c.Hi, c.HiStrict = &v, true
			case OpLe:
				c.Hi = &v
			case OpGt:
				c.Lo, c.LoStrict = &v, true
			case OpGe:
				c.Lo = &v
			}
			cons = append(cons, c)
		case *In:
			for _, v := range x.Values {
				if unknown(v) {
					ok = false
					return
				}
			}
			tbl := x.Col.Table
			if tbl == "" {
				tbl = table
			}
			cons = append(cons, Constraint{Table: tbl, Column: x.Col.Column, Eq: x.Values})
		case *Between:
			if unknown(x.Lo) || unknown(x.Hi) {
				ok = false
				return
			}
			tbl := x.Col.Table
			if tbl == "" {
				tbl = table
			}
			lo, hi := x.Lo, x.Hi
			cons = append(cons, Constraint{Table: tbl, Column: x.Col.Column, Lo: &lo, Hi: &hi})
		}
	}
	walk(where)
	if !ok {
		return table, nil, false
	}
	return table, cons, true
}

// EvalWhere evaluates a WHERE expression against a row, where lookup
// returns the value of a column (resolving unqualified names). A nil
// expression is true.
func EvalWhere(e Expr, lookup func(ColRef) datum.D) bool {
	return EvalBound(e, nil, lookup)
}

// EvalBound is EvalWhere for the WHERE clause of a prepared statement's
// template: each placeholder takes its value from args (see BindValue).
func EvalBound(e Expr, args []datum.D, lookup func(ColRef) datum.D) bool {
	if e == nil {
		return true
	}
	switch x := e.(type) {
	case *And:
		return EvalBound(x.L, args, lookup) && EvalBound(x.R, args, lookup)
	case *Or:
		return EvalBound(x.L, args, lookup) || EvalBound(x.R, args, lookup)
	case *Compare:
		lv := lookup(x.Col)
		rv := BindValue(x.Value, args)
		if x.Col2 != nil {
			rv = lookup(*x.Col2)
		}
		cmp := datum.Compare(lv, rv)
		switch x.Op {
		case OpEq:
			return cmp == 0
		case OpNe:
			return cmp != 0
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		case OpGe:
			return cmp >= 0
		}
	case *In:
		lv := lookup(x.Col)
		for _, v := range x.Values {
			if datum.Equal(lv, BindValue(v, args)) {
				return true
			}
		}
		return false
	case *Between:
		lv := lookup(x.Col)
		return datum.Compare(lv, BindValue(x.Lo, args)) >= 0 && datum.Compare(lv, BindValue(x.Hi, args)) <= 0
	}
	return false
}

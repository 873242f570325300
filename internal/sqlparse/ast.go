package sqlparse

import (
	"strconv"
	"strings"

	"schism/internal/datum"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// ColRef names a column, optionally qualified by table.
type ColRef struct {
	Table  string
	Column string
}

func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// CompareOp enumerates comparison operators.
type CompareOp int

// Comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Expr is a boolean WHERE expression.
type Expr interface {
	expr()
	String() string
}

// And is conjunction.
type And struct{ L, R Expr }

// Or is disjunction.
type Or struct{ L, R Expr }

// Compare compares a column to a literal (Value) or, when Col2 is non-nil,
// to another column (a join predicate).
type Compare struct {
	Col   ColRef
	Op    CompareOp
	Value datum.D
	Col2  *ColRef
}

// In tests membership of a column in a literal list.
type In struct {
	Col    ColRef
	Values []datum.D
}

// Between tests Lo <= col <= Hi.
type Between struct {
	Col    ColRef
	Lo, Hi datum.D
}

func (*And) expr()     {}
func (*Or) expr()      {}
func (*Compare) expr() {}
func (*In) expr()      {}
func (*Between) expr() {}

func (e *And) String() string { return "(" + e.L.String() + " AND " + e.R.String() + ")" }
func (e *Or) String() string  { return "(" + e.L.String() + " OR " + e.R.String() + ")" }
func (e *Compare) String() string {
	if e.Col2 != nil {
		return e.Col.String() + " " + e.Op.String() + " " + e.Col2.String()
	}
	return e.Col.String() + " " + e.Op.String() + " " + e.Value.String()
}
func (e *In) String() string {
	parts := make([]string, len(e.Values))
	for i, v := range e.Values {
		parts[i] = v.String()
	}
	return e.Col.String() + " IN (" + strings.Join(parts, ", ") + ")"
}
func (e *Between) String() string {
	return e.Col.String() + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String()
}

// Join is a single equi-join clause.
type Join struct {
	Table string
	Left  ColRef
	Right ColRef
}

// Select is a SELECT statement.
type Select struct {
	Cols      []ColRef // empty means *
	Table     string
	Join      *Join
	Where     Expr // may be nil
	OrderBy   *ColRef
	Desc      bool
	Limit     int // -1 if absent
	ForUpdate bool
}

// Assignment is one SET clause: Col = literal, or Col = Col ± Delta when
// Delta form is used (e.g. bal = bal + 100).
type Assignment struct {
	Col   string
	Value datum.D
	// SelfOp is 0 for plain assignment, '+' or '-' for col = col ± value.
	SelfOp byte
}

// Update is an UPDATE statement.
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Insert is an INSERT statement.
type Insert struct {
	Table  string
	Cols   []string
	Values []datum.D
}

// Delete is a DELETE statement.
type Delete struct {
	Table string
	Where Expr
}

func (*Select) stmt() {}
func (*Update) stmt() {}
func (*Insert) stmt() {}
func (*Delete) stmt() {}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if len(s.Cols) == 0 {
		sb.WriteString("*")
	} else {
		for i, c := range s.Cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.String())
		}
	}
	sb.WriteString(" FROM ")
	sb.WriteString(s.Table)
	if s.Join != nil {
		sb.WriteString(" JOIN " + s.Join.Table + " ON " + s.Join.Left.String() + " = " + s.Join.Right.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if s.OrderBy != nil {
		sb.WriteString(" ORDER BY " + s.OrderBy.String())
		if s.Desc {
			sb.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT " + strconv.Itoa(s.Limit))
	}
	if s.ForUpdate {
		sb.WriteString(" FOR UPDATE")
	}
	return sb.String()
}

func (s *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Col + " = ")
		if a.SelfOp != 0 {
			sb.WriteString(a.Col + " " + string(a.SelfOp) + " ")
		}
		sb.WriteString(a.Value.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	return sb.String()
}

func (s *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + s.Table + " (")
	sb.WriteString(strings.Join(s.Cols, ", "))
	sb.WriteString(") VALUES (")
	for i, v := range s.Values {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(v.String())
	}
	sb.WriteString(")")
	return sb.String()
}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

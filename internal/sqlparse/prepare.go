package sqlparse

import (
	"fmt"

	"schism/internal/datum"
)

// Prepared is a ?-parameterised statement parsed once (App. C.2's
// per-statement work, paid per statement SHAPE instead of per call). It
// is immutable after Prepare and safe to share between goroutines; each
// call supplies its own argument slice.
//
// The template is an ordinary AST in which the n-th placeholder is
// placeholder(n): a NULL datum carrying its ordinal. NULL is what every
// consumer that does not bind already takes for "value unknown" — the
// template renders as NULL and Constraints reports it unroutable — and
// BindValue / EvalBound / Prepared.Constraints swap in the argument.
type Prepared struct {
	sql     string
	stmt    Statement
	table   string
	write   bool
	nparams int
	// skel is Constraints' result for the template with placeholders left
	// in place; routable is false when no argument can make the statement
	// routable (an OR, or a literal NULL). ne lists the placeholders of !=
	// comparisons, which skel omits but NULL still makes unroutable.
	skel     []Constraint
	routable bool
	ne       []int
}

// Prepare parses a SELECT, UPDATE, INSERT or DELETE whose literals may be
// placeholders and derives everything about it that does not depend on
// the arguments.
func Prepare(sql string) (*Prepared, error) {
	stmt, n, err := parse(sql, true)
	if err != nil {
		return nil, err
	}
	p := &Prepared{sql: sql, stmt: stmt, nparams: n}
	switch stmt.(type) {
	case *Select:
	case *Update, *Insert, *Delete:
		p.write = true
	default:
		return nil, fmt.Errorf("sqlparse: cannot prepare %s", stmt)
	}
	p.table, p.skel, p.routable = constraints(stmt, &p.ne)
	return p, nil
}

// MustPrepare prepares or panics; for static workload definitions.
func MustPrepare(sql string) *Prepared {
	p, err := Prepare(sql)
	if err != nil {
		panic(err)
	}
	return p
}

// SQL returns the text the statement was prepared from.
func (p *Prepared) SQL() string { return p.sql }

// Template returns the parsed statement with its placeholders unbound.
// Callers must not modify it.
func (p *Prepared) Template() Statement { return p.stmt }

// Table returns the statement's primary table.
func (p *Prepared) Table() string { return p.table }

// Write reports whether the statement modifies data.
func (p *Prepared) Write() bool { return p.write }

// NumParams returns the number of placeholders.
func (p *Prepared) NumParams() int { return p.nparams }

// NumConstraints returns how many constraints Constraints appends when
// the statement is routable: a caller sizes its storage with it.
func (p *Prepared) NumConstraints() int { return len(p.skel) }

// Constraints appends to dst what sqlparse.Constraints would extract
// from the statement with args bound, without walking the AST: the
// skeleton is copied and each placeholder replaced. It allocates nothing
// when dst has room for NumConstraints more. One-value Eq lists and
// range bounds alias args, so the caller must not change args while the
// result is in use. ok is false, and cons nil, for an unroutable
// statement, a NULL argument or a wrong argument count.
func (p *Prepared) Constraints(dst []Constraint, args []datum.D) (cons []Constraint, ok bool) {
	if !p.routable || len(args) != p.nparams {
		return nil, false
	}
	for _, j := range p.ne {
		if args[j].IsNull() {
			return nil, false
		}
	}
	if len(p.skel) == 0 {
		return dst, true
	}
	cons = append(dst, p.skel...)
	for i := len(dst); i < len(cons); i++ {
		c := &cons[i]
		if len(c.Eq) == 1 {
			if j, param := paramIndex(c.Eq[0]); param {
				c.Eq = args[j : j+1 : j+1]
			}
		} else if c.Eq != nil {
			c.Eq = bindList(c.Eq, args)
		}
		for _, v := range c.Eq {
			if v.IsNull() {
				return nil, false
			}
		}
		if !bindBound(&c.Lo, args) || !bindBound(&c.Hi, args) {
			return nil, false
		}
	}
	return cons, true
}

// bindBound points a range bound that is a placeholder at its argument,
// and reports whether the bound (if any) is a known value.
func bindBound(b **datum.D, args []datum.D) bool {
	if *b == nil {
		return true
	}
	if j, param := paramIndex(**b); param {
		*b = &args[j]
	}
	return !(*b).IsNull()
}

// bindList binds a literal list, returning vs itself when it holds no
// placeholder.
func bindList(vs, args []datum.D) []datum.D {
	for i, v := range vs {
		if _, param := paramIndex(v); !param {
			continue
		}
		out := make([]datum.D, len(vs))
		copy(out, vs[:i])
		for ; i < len(vs); i++ {
			out[i] = BindValue(vs[i], args)
		}
		return out
	}
	return vs
}

// BindValue resolves one literal of a prepared template: a placeholder
// yields its argument, anything else is returned as is. A placeholder
// args does not cover stays NULL.
func BindValue(v datum.D, args []datum.D) datum.D {
	if j, param := paramIndex(v); param && j < len(args) {
		return args[j]
	}
	return v
}

// placeholder is the template form of the n-th (1-based) placeholder.
func placeholder(n int) datum.D { return datum.D{K: datum.Null, I: int64(n)} }

// paramIndex returns the 0-based argument index v stands for, if v is a
// placeholder.
func paramIndex(v datum.D) (int, bool) {
	if v.K == datum.Null && v.I > 0 {
		return int(v.I) - 1, true
	}
	return 0, false
}

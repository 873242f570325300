package sqlparse

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"schism/internal/datum"
)

// Parse parses a single SQL statement. A placeholder (?) parses as the
// NULL literal: the value is unknown, so the router broadcasts.
func Parse(src string) (Statement, error) {
	stmt, _, err := parse(src, false)
	return stmt, err
}

// tokenPool holds lexer buffers between parses, so that a parse allocates
// only the statement it returns. A buffer is cleared before it goes back:
// a pooled buffer references no SQL text.
var tokenPool = sync.Pool{New: func() any { return new([]token) }}

// parse is Parse; with numbered set, the n-th placeholder becomes
// placeholder(n) instead of plain NULL and the count is returned. Each
// call lexes into a buffer of its own from tokenPool, so parses may run
// concurrently.
func parse(src string, numbered bool) (Statement, int, error) {
	buf := tokenPool.Get().(*[]token)
	toks, err := lex(src, *buf, false)
	var stmt Statement
	var n int
	if err == nil {
		stmt, n, err = parseTokens(toks, src, numbered)
	}
	clear(toks)
	*buf = toks[:0]
	tokenPool.Put(buf)
	return stmt, n, err
}

// parseTokens parses one statement from the tokens lex produced for src.
func parseTokens(toks []token, src string, numbered bool) (Statement, int, error) {
	p := &parser{toks: toks, src: src, numbered: numbered}
	stmt, err := p.parseAll()
	if err != nil {
		return nil, 0, err
	}
	return stmt, p.nparams, nil
}

// parseAll parses the parser's tokens as one statement and its end.
func (p *parser) parseAll() (Statement, error) {
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().kind == tokPunct && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("trailing input %q", p.peek().text)
	}
	return stmt, nil
}

// MustParse parses or panics; for tests and static workload definitions.
func MustParse(src string) Statement {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

type parser struct {
	toks []token
	i    int
	src  string
	// numbered makes literal() number the placeholders it meets (Prepare);
	// nparams counts them.
	numbered bool
	nparams  int
	// lits, when set, collects the token index of every literal read.
	lits *[]int32
}

func (p *parser) peek() token { return p.toks[p.i] }
func (p *parser) next() token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) errorf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: %s (at %q, pos %d)", fmt.Sprintf(format, args...), p.peek().text, p.peek().pos)
}

// keyword consumes an identifier equal (case-insensitively) to kw.
func (p *parser) keyword(kw string) bool {
	if p.peek().kind == tokIdent && strings.EqualFold(p.peek().text, kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.keyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *parser) expectPunct(s string) error {
	if p.peek().kind == tokPunct && p.peek().text == s {
		p.next()
		return nil
	}
	return p.errorf("expected %q", s)
}

func (p *parser) ident() (string, error) {
	if p.peek().kind != tokIdent {
		return "", p.errorf("expected identifier")
	}
	return p.next().text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errorf("expected statement keyword")
	}
	switch strings.ToUpper(t.text) {
	case "SELECT":
		return p.parseSelect()
	case "UPDATE":
		return p.parseUpdate()
	case "INSERT":
		return p.parseInsert()
	case "DELETE":
		return p.parseDelete()
	}
	return nil, p.errorf("unsupported statement %q", t.text)
}

func (p *parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	s := &Select{Limit: -1}
	if p.peek().kind == tokPunct && p.peek().text == "*" {
		p.next()
	} else {
		for {
			c, err := p.colRef()
			if err != nil {
				return nil, err
			}
			s.Cols = append(s.Cols, c)
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.ident()
	if err != nil {
		return nil, err
	}
	s.Table = tbl
	if p.keyword("JOIN") {
		j := &Join{}
		if j.Table, err = p.ident(); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		if j.Left, err = p.colRef(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		if j.Right, err = p.colRef(); err != nil {
			return nil, err
		}
		s.Join = j
	}
	if p.keyword("WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if p.keyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		c, err := p.colRef()
		if err != nil {
			return nil, err
		}
		s.OrderBy = &c
		if p.keyword("DESC") {
			s.Desc = true
		} else {
			p.keyword("ASC")
		}
	}
	if p.keyword("LIMIT") {
		if p.peek().kind != tokNumber {
			return nil, p.errorf("expected LIMIT count")
		}
		n, err := strconv.Atoi(p.peek().text)
		if err != nil {
			return nil, p.errorf("bad LIMIT %q", p.peek().text)
		}
		p.next()
		s.Limit = n
	}
	if p.keyword("FOR") {
		if err := p.expectKeyword("UPDATE"); err != nil {
			return nil, err
		}
		s.ForUpdate = true
	}
	return s, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	s := &Update{}
	var err error
	if s.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		a := Assignment{Col: col}
		// Either a literal, or "col (+|-) literal".
		if p.peek().kind == tokIdent {
			ref, err := p.ident()
			if err != nil {
				return nil, err
			}
			if !strings.EqualFold(ref, col) {
				return nil, p.errorf("SET %s references %s; only self-references supported", col, ref)
			}
			opTok := p.peek()
			switch {
			case opTok.kind == tokPunct && (opTok.text == "+" || opTok.text == "-"):
				p.next()
				a.SelfOp = opTok.text[0]
			case opTok.kind == tokNumber && opTok.text[0] == '-':
				// "a -1": the lexer folded the minus into the number.
				// Split it back into the operator and the magnitude.
				a.SelfOp = '-'
				p.toks[p.i].text = opTok.text[1:]
				p.toks[p.i].pos++
			default:
				return nil, p.errorf("expected + or - after self-reference")
			}
			if a.Value, err = p.literal(); err != nil {
				return nil, err
			}
		} else {
			if a.Value, err = p.literal(); err != nil {
				return nil, err
			}
		}
		s.Set = append(s.Set, a)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if p.keyword("WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	s := &Insert{}
	var err error
	if s.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		s.Cols = append(s.Cols, col)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		s.Values = append(s.Values, v)
		if p.peek().kind == tokPunct && p.peek().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if len(s.Cols) != len(s.Values) {
		return nil, p.errorf("INSERT has %d columns but %d values", len(s.Cols), len(s.Values))
	}
	return s, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	s := &Delete{}
	var err error
	if s.Table, err = p.ident(); err != nil {
		return nil, err
	}
	if p.keyword("WHERE") {
		if s.Where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// parseExpr parses OR-level expressions.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Or{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.keyword("AND") {
		right, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		left = &And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	if p.peek().kind == tokPunct && p.peek().text == "(" {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	col, err := p.colRef()
	if err != nil {
		return nil, err
	}
	if p.keyword("IN") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		in := &In{Col: col}
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			in.Values = append(in.Values, v)
			if p.peek().kind == tokPunct && p.peek().text == "," {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return in, nil
	}
	if p.keyword("BETWEEN") {
		lo, err := p.literal()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.literal()
		if err != nil {
			return nil, err
		}
		return &Between{Col: col, Lo: lo, Hi: hi}, nil
	}
	opTok := p.peek()
	if opTok.kind != tokPunct {
		return nil, p.errorf("expected comparison operator")
	}
	var op CompareOp
	switch opTok.text {
	case "=":
		op = OpEq
	case "!=", "<>":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return nil, p.errorf("unsupported operator %q", opTok.text)
	}
	p.next()
	// Right side: literal or column reference (join predicate). NULL is
	// always the literal, never a column, so placeholder comparisons
	// round-trip through their rendered form.
	if p.peek().kind == tokIdent && !strings.EqualFold(p.peek().text, "NULL") {
		rc, err := p.colRef()
		if err != nil {
			return nil, err
		}
		return &Compare{Col: col, Op: op, Col2: &rc}, nil
	}
	v, err := p.literal()
	if err != nil {
		return nil, err
	}
	return &Compare{Col: col, Op: op, Value: v}, nil
}

// colRef parses "col" or "table.col".
func (p *parser) colRef() (ColRef, error) {
	name, err := p.ident()
	if err != nil {
		return ColRef{}, err
	}
	if p.peek().kind == tokPunct && p.peek().text == "." {
		p.next()
		col, err := p.ident()
		if err != nil {
			return ColRef{}, err
		}
		return ColRef{Table: name, Column: col}, nil
	}
	return ColRef{Column: name}, nil
}

// literal parses a number, string, or placeholder (? becomes NULL, which
// the router treats as "unknown value").
func (p *parser) literal() (datum.D, error) {
	t := p.peek()
	if p.lits != nil {
		*p.lits = append(*p.lits, int32(p.i))
	}
	switch t.kind {
	case tokNumber:
		// The error names the literal itself, so it is reported before
		// the literal is consumed.
		v, ok := numberValue(t.text)
		switch {
		case ok:
			p.next()
			return v, nil
		case v.K == datum.Float:
			return datum.NullD, p.errorf("bad float %q", t.text)
		}
		return datum.NullD, p.errorf("bad int %q", t.text)
	case tokString:
		p.next()
		return datum.NewString(t.text), nil
	case tokPlaceholder:
		p.next()
		if p.numbered {
			p.nparams++
			return placeholder(p.nparams), nil
		}
		return datum.NullD, nil
	case tokIdent:
		if strings.EqualFold(t.text, "NULL") {
			p.next()
			return datum.NullD, nil
		}
	}
	return datum.NullD, p.errorf("expected literal")
}

// numberValue is the value of a number token's text, and false where it
// does not parse; the value's kind says which parse was tried.
func numberValue(text string) (datum.D, bool) {
	if isFloat(text) {
		f, err := strconv.ParseFloat(text, 64)
		return datum.NewFloat(f), err == nil && !math.IsInf(f, 0)
	}
	v, err := strconv.ParseInt(text, 10, 64)
	return datum.NewInt(v), err == nil
}

// isFloat reports whether a number token's text is a float's: it holds a
// point or an exponent.
func isFloat(text string) bool {
	for i := 0; i < len(text); i++ {
		if c := text[i]; c == '.' || c == 'e' || c == 'E' {
			return true
		}
	}
	return false
}

// appendShape appends the shape key of a lexed statement to key: every
// token's kind and text, except that a literal the parser treats alike
// whatever its value stands as its kind alone. Those literals are a string
// ('s'), an int that strconv.Atoi takes ('i': literal() and LIMIT both
// accept it) and a float that literal() takes ('f': LIMIT rejects every
// one), all without a sign. Any other number stays verbatim: a negative
// one, which may be the folded "a -1" of an UPDATE's self-reference whose
// magnitude must parse again, an int that overflows and "1.5.5". Two
// statements with equal keys therefore parse alike: both fail, or both
// yield the same statement but for literal values.
func appendShape(key []byte, toks []token) []byte {
	for _, t := range toks {
		if c := literalClass(t); c != 0 {
			key = append(key, c)
		} else {
			key = append(key, byte('0'+t.kind))
			key = append(key, t.text...)
		}
		// No text written here holds a space, so a space ends each token.
		key = append(key, ' ')
	}
	return key
}

// literalClass is the letter a literal the parser treats alike whatever
// its value stands as in a shape key ('s', 'i' or 'f'), and 0 for a token
// that stands verbatim. An unsigned number parses wherever it stands if a
// float parses as literal() parses one and an int as LIMIT's strconv.Atoi
// does. Atoi accepts no int that literal()'s ParseInt rejects, and where
// int has 64 bits it accepts every other one; an int token is digits
// only, so 18 of them always parse.
func literalClass(t token) byte {
	switch {
	case t.kind == tokString:
		return 's'
	case t.kind != tokNumber || t.text[0] == '-':
		return 0
	case isFloat(t.text):
		if f, err := strconv.ParseFloat(t.text, 64); err == nil && !math.IsInf(f, 0) {
			return 'f'
		}
		return 0
	case len(t.text) <= 18:
		return 'i'
	}
	if _, err := strconv.Atoi(t.text); err == nil {
		return 'i'
	}
	return 0
}

// Package sqlparse implements a lexer and recursive-descent parser for the
// OLTP SQL subset used by Schism traces (§5.3): single-table SELECT /
// UPDATE / INSERT / DELETE with conjunctive WHERE clauses (=, <, <=, >, >=,
// !=, BETWEEN, IN), one optional equi-join, ORDER BY and LIMIT. It also
// provides WHERE-attribute extraction for the explanation phase (§5.2) and
// constraint extraction for the middleware router (App. C.2).
package sqlparse

import (
	"fmt"
	"strings"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPunct
	tokPlaceholder
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenises the input into buf[:0] and returns the grown buffer, also
// with the error it reports for an unterminated string or unexpected
// byte. Only a string literal's text is allocated; every other token's is
// a substring of src or a constant. With raw set, a string literal's text
// is its body in src, quotes doubled, so nothing is allocated: for a
// caller that reads no literal's value.
func lex(src string, buf []token, raw bool) ([]token, error) {
	l := lexer{src: src, toks: buf[:0]}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
				l.pos++
			}
			l.emit(tokIdent, l.src[start:l.pos], start)
		case c >= '0' && c <= '9' || (c == '-' && l.peekDigit()):
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
				l.pos++
			}
			// Exponent suffix (1e9, 2.5E-3, 1e+06): consumed only when a
			// well-formed exponent follows, so "1e" stays number + ident.
			if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
				j := l.pos + 1
				if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
					j++
				}
				if j < len(l.src) && l.src[j] >= '0' && l.src[j] <= '9' {
					for j < len(l.src) && l.src[j] >= '0' && l.src[j] <= '9' {
						j++
					}
					l.pos = j
				}
			}
			l.emit(tokNumber, l.src[start:l.pos], start)
		case c == '\'':
			start := l.pos
			l.pos++
			closed, escaped := false, false
			for l.pos < len(l.src) {
				if l.src[l.pos] == '\'' {
					// '' escapes a quote.
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						escaped = true
						l.pos += 2
						continue
					}
					l.pos++
					closed = true
					break
				}
				l.pos++
			}
			if !closed {
				return l.toks, fmt.Errorf("sqlparse: unterminated string at %d", start)
			}
			body := l.src[start+1 : l.pos-1]
			if !raw {
				body = unquote(body, escaped)
			}
			l.emit(tokString, body, start)
		case c == '?':
			l.emit(tokPlaceholder, "?", l.pos)
			l.pos++
		case isPunct(c):
			start := l.pos
			l.pos++
			if l.pos < len(l.src) {
				switch l.src[start : l.pos+1] {
				case "<=", ">=", "!=", "<>":
					l.pos++
				}
			}
			l.emit(tokPunct, l.src[start:l.pos], start)
		default:
			return l.toks, fmt.Errorf("sqlparse: unexpected byte %q at %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "", l.pos)
	return l.toks, nil
}

// unquote is the value of a string literal whose body in the source is
// body, escaped when it holds a doubled quote: a new string either way,
// so the value never pins the statement's text.
func unquote(body string, escaped bool) string {
	if escaped {
		return strings.ReplaceAll(body, "''", "'")
	}
	return strings.Clone(body)
}

func (l *lexer) emit(k tokenKind, text string, pos int) {
	l.toks = append(l.toks, token{kind: k, text: text, pos: pos})
}

func (l *lexer) peekDigit() bool {
	return l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'
}

func isPunct(c byte) bool {
	switch c {
	case '=', '<', '>', '!', '(', ')', ',', '.', '*', '+', '-', ';':
		return true
	}
	return false
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

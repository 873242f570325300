// Package datum defines the scalar value type shared by the SQL parser,
// the storage engine, the router, and the decision-tree learner.
package datum

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the supported scalar types.
type Kind uint8

const (
	// Null is the zero Kind: the absence of a value.
	Null Kind = iota
	// Int is a 64-bit signed integer.
	Int
	// Float is a 64-bit IEEE float.
	Float
	// String is an immutable byte string.
	String
)

func (k Kind) String() string {
	switch k {
	case Null:
		return "NULL"
	case Int:
		return "INT"
	case Float:
		return "FLOAT"
	case String:
		return "STRING"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// D is a dynamically typed scalar. The zero value is NULL.
type D struct {
	K Kind
	I int64
	F float64
	S string
}

// NewInt returns an Int datum.
func NewInt(v int64) D { return D{K: Int, I: v} }

// NewFloat returns a Float datum.
func NewFloat(v float64) D { return D{K: Float, F: v} }

// NewString returns a String datum.
func NewString(v string) D { return D{K: String, S: v} }

// NullD is the NULL datum.
var NullD = D{}

// IsNull reports whether d is NULL.
func (d D) IsNull() bool { return d.K == Null }

// String renders the datum as SQL literal text that the sqlparse lexer
// re-reads to an equal value: embedded quotes are doubled, and integral
// floats keep a ".0" so they do not reparse as ints.
func (d D) String() string {
	switch d.K {
	case Null:
		return "NULL"
	case Int:
		return strconv.FormatInt(d.I, 10)
	case Float:
		s := strconv.FormatFloat(d.F, 'g', -1, 64)
		if isIntLiteral(s) {
			s += ".0"
		}
		return s
	case String:
		return "'" + strings.ReplaceAll(d.S, "'", "''") + "'"
	}
	return "?"
}

// isIntLiteral reports whether s is just an (optionally signed) digit
// string — the FormatFloat outputs that would round-trip as Int.
func isIntLiteral(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && !(i == 0 && c == '-') {
			return false
		}
	}
	return len(s) > 0
}

// AsFloat converts numeric datums to float64 (Int is widened); returns
// false for NULL and String.
func (d D) AsFloat() (float64, bool) {
	switch d.K {
	case Int:
		return float64(d.I), true
	case Float:
		return d.F, true
	}
	return 0, false
}

// AsInt returns the integer value; Float is truncated. Returns false for
// NULL and String.
func (d D) AsInt() (int64, bool) {
	switch d.K {
	case Int:
		return d.I, true
	case Float:
		return int64(d.F), true
	}
	return 0, false
}

// Compare orders two datums: NULL < numbers < strings; Int and Float
// compare numerically with each other. Returns -1, 0 or +1.
func Compare(a, b D) int {
	ra, rb := rank(a.K), rank(b.K)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // numeric
		fa, _ := a.AsFloat()
		fb, _ := b.AsFloat()
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	default: // strings
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		}
		return 0
	}
}

func rank(k Kind) int {
	switch k {
	case Null:
		return 0
	case Int, Float:
		return 1
	default:
		return 2
	}
}

// Equal reports value equality under Compare semantics (1 == 1.0).
func Equal(a, b D) bool { return Compare(a, b) == 0 }

// Hash returns a stable hash of the datum, with Int and Float of equal
// value hashing identically (consistent with Equal): the 64-bit FNV-1a of
// a kind-dependent encoding, computed inline because it runs on every
// routed statement and index probe.
func Hash(d D) uint64 {
	h := uint64(fnvOffset64)
	switch d.K {
	case Null:
		h = fnvByte(h, 0)
	case Int:
		h = fnvU64(h, uint64(d.I))
	case Float:
		if d.F == math.Trunc(d.F) && d.F >= math.MinInt64 && d.F <= math.MaxInt64 {
			// Hash integral floats as ints for Equal-consistency.
			h = fnvU64(h, uint64(int64(d.F)))
		} else {
			h = fnvU64(h, math.Float64bits(d.F))
		}
	case String:
		h = fnvByte(h, 2)
		for i := 0; i < len(d.S); i++ {
			h = fnvByte(h, d.S[i])
		}
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

// fnvU64 hashes v's eight little-endian bytes.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v>>(8*i)))
	}
	return h
}

// Size returns the approximate in-memory size of the datum in bytes, used
// for the storage layer's byte accounting.
func (d D) Size() int64 {
	if d.K == String {
		return int64(16 + len(d.S))
	}
	return 8
}

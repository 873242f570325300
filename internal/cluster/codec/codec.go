// Package codec is the binary row codec the cluster's durable images share:
// the node write-ahead log encodes its records' before-images with it, and
// a replication group's compaction snapshot encodes its rows and pending
// redo with it. Integers are varints, floats their eight little-endian IEEE
// bytes, strings a length-prefixed byte run, and a row its arity followed by
// one kind byte and payload per value.
//
// Encoding appends to a caller-owned buffer and never fails. Decoding goes
// through a Reader that flags the first truncated or malformed field and
// returns zero values from then on, so a caller checks Bad once at the end
// instead of after every field.
package codec

import (
	"encoding/binary"
	"math"

	"schism/internal/datum"
)

// AppendString appends s as its uvarint length and bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendRow appends row as its uvarint arity and, per value, its kind byte
// and payload (none for NULL).
func AppendRow(b []byte, row []datum.D) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, d := range row {
		b = append(b, byte(d.K))
		switch d.K {
		case datum.Int:
			b = binary.AppendVarint(b, d.I)
		case datum.Float:
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(d.F))
		case datum.String:
			b = AppendString(b, d.S)
		}
	}
	return b
}

// Reader decodes fields from a byte slice in order.
type Reader struct {
	b   []byte
	off int
	bad bool
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Bad reports whether a field so far was truncated or malformed.
func (r *Reader) Bad() bool { return r.bad }

// Len returns the number of bytes not yet read.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.bad || r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.bad = true
	return false
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.bad {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// Count reads a uvarint element count and checks it against the bytes left,
// given that every element encodes to at least min bytes; so a corrupt
// count can never size an allocation larger than the input can fill.
func (r *Reader) Count(min int) int {
	n := r.Uvarint()
	if r.bad || n > uint64(r.Len()/min) {
		r.bad = true
		return 0
	}
	return int(n)
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string {
	n := r.Count(1)
	if r.bad {
		return ""
	}
	s := string(r.b[r.off : r.off+n])
	r.off += n
	return s
}

// Row reads a row, decoding into dst's backing array when it is large
// enough (pass nil for a row of its own).
func (r *Reader) Row(dst []datum.D) []datum.D {
	n := r.Count(1) // every value is at least its kind byte
	if r.bad {
		return nil
	}
	if dst == nil || cap(dst) < n { // a decoded row is never nil, even at arity 0
		dst = make([]datum.D, n)
	}
	row := dst[:n]
	for i := range row {
		switch k := datum.Kind(r.Byte()); k {
		case datum.Null:
			row[i] = datum.NullD
		case datum.Int:
			row[i] = datum.NewInt(r.Varint())
		case datum.Float:
			if r.Len() < 8 {
				r.bad = true
				return nil
			}
			row[i] = datum.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:])))
			r.off += 8
		case datum.String:
			row[i] = datum.NewString(r.Str())
		default:
			r.bad = true
		}
		if r.bad {
			return nil
		}
	}
	return row
}

package codec

import (
	"math"
	"reflect"
	"testing"

	"schism/internal/datum"
)

func TestRowRoundTrip(t *testing.T) {
	rows := [][]datum.D{
		{},
		{datum.NullD, datum.NewInt(math.MinInt64), datum.NewInt(math.MaxInt64)},
		{datum.NewFloat(math.Inf(-1)), datum.NewFloat(0.1), datum.NewString(""), datum.NewString("héllo")},
	}
	var b []byte
	for _, row := range rows {
		b = AppendRow(b, row)
	}
	r := NewReader(b)
	var dst []datum.D
	for _, want := range rows {
		got := r.Row(dst)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("row %v decoded as %v", want, got)
		}
		if len(want) > 0 && cap(dst) >= len(want) && &got[0] != &dst[:1][0] {
			t.Fatal("Row allocated although dst was large enough")
		}
		dst = got
	}
	if r.Bad() || r.Len() != 0 {
		t.Fatalf("bad %v, %d bytes left", r.Bad(), r.Len())
	}
	if got := r.Row(nil); got != nil || !r.Bad() {
		t.Fatalf("Row past the end = %v, bad %v", got, r.Bad())
	}
}

func TestReaderRejectsMalformed(t *testing.T) {
	for name, tc := range map[string]struct {
		b    []byte
		read func(*Reader)
	}{
		"count over the bytes left": {[]byte{3, 0, 0}, func(r *Reader) { r.Count(1) }},
		"string past the end":       {[]byte{2, 'a'}, func(r *Reader) { r.Str() }},
		"bool of 2":                 {[]byte{2}, func(r *Reader) { r.Bool() }},
		"unknown kind":              {[]byte{1, 9}, func(r *Reader) { r.Row(nil) }},
		"short float":               {[]byte{1, byte(datum.Float), 0, 0}, func(r *Reader) { r.Row(nil) }},
		"unterminated varint":       {[]byte{0x80, 0x80}, func(r *Reader) { r.Varint() }},
	} {
		r := NewReader(tc.b)
		tc.read(&r)
		if !r.Bad() {
			t.Errorf("%s: not flagged", name)
		}
	}
}

package workloads

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"testing"

	"schism/internal/driver"
)

// sigFormats is every Sig layout of streams.go as the fmt format that
// once rendered it: a stream's Sig must read exactly as fmt.Sprintf
// renders its values under one of these.
var sigFormats = []string{
	"no w%d d%d c%d i%v s%v", "pay w%d d%d c%d cw%d", "os w%d d%d c%d", "dl w%d", "sl w%d d%d",
	"u %d", "r %d", "g%d r%d r%d w%d", "sc %d %d",
	"q1 u%d i%d", "q2 u%d", "q3 i%d", "q4 i%d", "q5 u%d", "q6 u%d", "q7 i%d",
	"q8 r%d v%d", "q9 t%d v%d", "ru u%d",
}

// scanSig reads sig's values under format — %d an integer, %v a
// bracketed, space-separated list of them — and reports whether the
// literal text matched throughout.
func scanSig(format, sig string) ([]any, bool) {
	var vals []any
	int64At := func(s string) (int64, string, bool) {
		i := 0
		if i < len(s) && s[i] == '-' {
			i++
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		v, err := strconv.ParseInt(s[:i], 10, 64)
		return v, s[i:], err == nil
	}
	for len(format) > 0 {
		if len(format) >= 2 && format[0] == '%' {
			switch format[1] {
			case 'd':
				v, rest, ok := int64At(sig)
				if !ok {
					return nil, false
				}
				vals, sig = append(vals, v), rest
			case 'v':
				if len(sig) == 0 || sig[0] != '[' {
					return nil, false
				}
				sig = sig[1:]
				list := []int{}
				for len(sig) > 0 && sig[0] != ']' {
					if len(list) > 0 {
						if sig[0] != ' ' {
							return nil, false
						}
						sig = sig[1:]
					}
					v, rest, ok := int64At(sig)
					if !ok {
						return nil, false
					}
					list, sig = append(list, int(v)), rest
				}
				if len(sig) == 0 {
					return nil, false
				}
				vals, sig = append(vals, list), sig[1:]
			}
			format = format[2:]
			continue
		}
		if len(sig) == 0 || sig[0] != format[0] {
			return nil, false
		}
		format, sig = format[1:], sig[1:]
	}
	return vals, len(sig) == 0
}

// sigStreams is every stream of streams.go, small enough to draw from
// quickly; drawing generates no rows, so sizes only bound the values.
func sigStreams() []struct {
	name string
	mk   driver.StreamMaker
} {
	tp := TPCCConfig{Warehouses: 8, Districts: 10, Customers: 300, Items: 2000}
	sc := SimplecountConfig{Rows: 1500, Partitions: 3}
	return []struct {
		name string
		mk   driver.StreamMaker
	}{
		{"tpcc", TPCCStream(tp)},
		{"tpcc-no-pay", TPCCNewOrderPaymentStream(tp)},
		{"ycsb-a", YCSBAStream(YCSBConfig{Rows: 5000})},
		{"ycsb-groups", YCSBGroupsStream(YCSBGroupsConfig{Rows: 4000})},
		{"simplecount-local", SimplecountStream(sc, false)},
		{"simplecount-dist", SimplecountStream(sc, true)},
		{"epinions", EpinionsStream(EpinionsConfig{Users: 400, Items: 200, Communities: 8, Seed: 3})},
	}
}

// sigDigests holds, per stream and seed, the FNV-64a hash of 10 000
// Sigs of client 1 joined by newlines, as rendered by fmt.Sprintf under
// sigFormats: a stream that draws or renders anything differently
// changes its digest.
var sigDigests = map[string]uint64{
	"tpcc/1":               0x09140deecbff55ec,
	"tpcc/7":               0xdb0db73c37c218e1,
	"tpcc/42":              0x114b015d6273f878,
	"tpcc-no-pay/1":        0xe48ea2e42f4adfa7,
	"tpcc-no-pay/7":        0x98952b612419ce73,
	"tpcc-no-pay/42":       0xab0701e7469863ed,
	"ycsb-a/1":             0xa51a736bb852bf18,
	"ycsb-a/7":             0xed263a346b6c3bd7,
	"ycsb-a/42":            0x1e34505f1b2d4326,
	"ycsb-groups/1":        0x8420b25532390335,
	"ycsb-groups/7":        0x9a28f40551329e89,
	"ycsb-groups/42":       0xf5d6bc2f8e178de3,
	"simplecount-local/1":  0xc76ac1d1a2d5cc81,
	"simplecount-local/7":  0xe9e91f8355ea177a,
	"simplecount-local/42": 0x704c066001dad530,
	"simplecount-dist/1":   0x3e2cc5d25fb9cf31,
	"simplecount-dist/7":   0x582cef623b20228a,
	"simplecount-dist/42":  0x41035d7b6bb0c656,
	"epinions/1":           0xbfaad97e00faae4b,
	"epinions/7":           0x6e5b70c8cc53166d,
	"epinions/42":          0x86d5fb9d2f5895fc,
}

// TestSigsRenderAsFmt draws 10 000 operations from every stream under
// three seeds and checks each Sig against fmt.Sprintf of the values it
// carries, under its stream's format, and each sequence against its
// digest.
func TestSigsRenderAsFmt(t *testing.T) {
	const draws = 10000
	for _, s := range sigStreams() {
		for _, seed := range []int64{1, 7, 42} {
			h := fnv.New64a()
			st := s.mk(1, seed)
			for i := 0; i < draws; i++ {
				sig := st.Next().Sig
				matched := false
				for _, f := range sigFormats {
					if vals, ok := scanSig(f, sig); ok {
						if want := fmt.Sprintf(f, vals...); want != sig {
							t.Fatalf("%s seed %d draw %d: Sig %q, fmt renders its values %q", s.name, seed, i, sig, want)
						}
						matched = true
						break
					}
				}
				if !matched {
					t.Fatalf("%s seed %d draw %d: Sig %q matches no stream format", s.name, seed, i, sig)
				}
				h.Write([]byte(sig))
				h.Write([]byte{'\n'})
			}
			key := fmt.Sprintf("%s/%d", s.name, seed)
			if want, ok := sigDigests[key]; !ok || h.Sum64() != want {
				t.Errorf("%s: digest %#x, want %#x", key, h.Sum64(), want)
			}
		}
	}
}

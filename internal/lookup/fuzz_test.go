package lookup

// Fuzz harness for Set/Locate equivalence: an arbitrary op stream decoded
// from the fuzz input is applied to every table representation
// (HashIndex as the oracle; Compact as the implementation under test)
// and to a Compress'd snapshot, and all must agree on every
// touched key and its neighbourhood.

import (
	"encoding/binary"
	"testing"
)

// decodeOps turns fuzz bytes into a deterministic op stream. Each op is 8
// bytes: 4 key bytes (two key regimes: dense small keys and far outliers),
// 1 set-size byte, 3 partition bytes.
func decodeOps(data []byte) (keys []int64, sets [][]int) {
	// Cap the op count so adversarially long inputs don't stall the fuzz
	// loop.
	if len(data) > 8*512 {
		data = data[:8*512]
	}
	for len(data) >= 8 {
		raw := binary.LittleEndian.Uint32(data[:4])
		var key int64
		switch raw & 7 {
		case 1, 3:
			key = int64(raw) << 16 // sparse outliers
			if raw&2 == 0 {
				key = -key
			}
		case 5:
			key = int64(^uint64(0)>>1) - int64(raw>>16) // near MaxInt64
		case 7:
			key = -int64(^uint64(0)>>1) - 1 + int64(raw>>16) // near MinInt64
		default:
			key = int64(raw >> 20) // dense: [0, 4096)
		}
		np := 1 + int(data[4]%3)
		parts := make([]int, np)
		for i := 0; i < np; i++ {
			parts[i] = int(data[5+i] % 32)
		}
		keys = append(keys, key)
		sets = append(sets, parts)
		data = data[8:]
	}
	return keys, sets
}

func FuzzTableEquivalence(f *testing.F) {
	mk := func(ops ...uint64) []byte {
		out := make([]byte, 0, 8*len(ops))
		for _, op := range ops {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], op)
			out = append(out, b[:]...)
		}
		return out
	}
	f.Add(mk(0x0102030400100000, 0x0203040500200000))
	f.Add(mk(0x01010101_00100000, 0x01010101_00100002, 0x02020202_80000001))
	f.Add(mk(0xffffffffffffffff, 0x0000000000000000))
	f.Add(mk(0x0a0b0c01_00300000, 0x0a0b0c02_00300000, 0x0a0b0c01_00400000))
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, sets := decodeOps(data)
		if len(keys) == 0 {
			return
		}
		oracle := NewHashIndex()
		impls := map[string]Table{"compact": NewCompact()}
		for i, key := range keys {
			oracle.Set(key, sets[i])
			for _, tbl := range impls {
				tbl.Set(key, sets[i])
			}
		}
		impls["compressed"] = Compress(oracle)
		probe := func(key int64) {
			want, wantOK := oracle.Locate(key)
			for name, tbl := range impls {
				got, ok := tbl.Locate(key)
				if ok != wantOK {
					t.Fatalf("%s: Locate(%d) ok=%v, oracle %v", name, key, ok, wantOK)
				}
				if !ok {
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s: Locate(%d) = %v, oracle %v", name, key, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: Locate(%d) = %v, oracle %v", name, key, got, want)
					}
				}
			}
		}
		for _, key := range keys {
			probe(key)
			probe(key - 1)
			probe(key + 1)
		}
		probe(0)
		probe(-1)
		probe(1 << 45)
	})
}

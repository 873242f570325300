package lookup

// Fuzz harness for Set/Locate equivalence: an arbitrary op stream decoded
// from the fuzz input is applied to a Compact and to a plain map model,
// with a Trim halfway and more Sets after it, so dense and spilled
// finished tables are both exercised. The table must agree with the model
// on every touched key and its neighbourhood after the stream and after
// a final Trim, and each Trim must leave it no larger than all its keys
// in the side map.

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
		c, m := NewCompact(), model{}
		trim := func() {
			c.Trim()
			if other := int64(c.Len())*sideEntryBytes + c.dict.memoryBytes(); c.MemoryBytes() > other {
				t.Fatalf("trimmed table %d bytes, all in the side map %d", c.MemoryBytes(), other)
			}
		}
		for i, key := range keys {
			if i == len(keys)/2 {
				trim()
			}
			c.Set(key, sets[i])
			m.set(key, sets[i])
		}
		probes := []int64{0, -1, 1 << 45}
		for _, key := range keys {
			probes = append(probes, key-1, key, key+1)
		}
		for _, stage := range []string{"built", "trimmed"} {
			if stage == "trimmed" {
				trim()
			}
			if k, ok := m.agrees(c, probes); !ok {
				got, gotOK := c.Locate(k)
				t.Fatalf("%s: Locate(%d) = %v %v, model %v", stage, k, got, gotOK, m[k])
			}
		}
	})
}

package wal

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"schism/internal/datum"
)

func row(vals ...interface{}) []datum.D {
	out := make([]datum.D, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = datum.NewInt(int64(x))
		case int64:
			out[i] = datum.NewInt(x)
		case float64:
			out[i] = datum.NewFloat(x)
		case string:
			out[i] = datum.NewString(x)
		case nil:
			out[i] = datum.D{}
		default:
			panic("unsupported")
		}
	}
	return out
}

func TestWALRoundTrip(t *testing.T) {
	l := New(0, 0)
	l.AppendUpdate(7, "account", 3, row(3, 1000, "alice", 2.5, nil), true)
	l.AppendUpdate(7, "account", 9, nil, false)
	l.AppendPrepare(7, []Key{{Table: "account", Key: 3}, {Table: "account", Key: 9}})
	l.AppendCommit(7)
	l.AppendUpdate(8, "account", 4, row(4, 500), true)
	l.AppendAbort(8)

	var recs []Record
	n := Iterate(l.Snapshot(), func(r Record) bool {
		recs = append(recs, r)
		return true
	})
	if n != l.Size() {
		t.Fatalf("intact prefix %d bytes, want full log %d", n, l.Size())
	}
	if len(recs) != 6 {
		t.Fatalf("decoded %d records, want 6", len(recs))
	}
	u := recs[0]
	if u.Type != TUpdate || u.TS != 7 || u.Table != "account" || u.Key != 3 || !u.HadOld {
		t.Fatalf("update record mismatch: %+v", u)
	}
	want := row(3, 1000, "alice", 2.5, nil)
	if len(u.Old) != len(want) {
		t.Fatalf("old row %d cols, want %d", len(u.Old), len(want))
	}
	for i := range want {
		if datum.Compare(u.Old[i], want[i]) != 0 {
			t.Fatalf("old[%d] = %v, want %v", i, u.Old[i], want[i])
		}
	}
	if recs[1].HadOld || recs[1].Old != nil {
		t.Fatalf("insert record should carry no before-image: %+v", recs[1])
	}
	p := recs[2]
	if p.Type != TPrepare || len(p.WriteSet) != 2 || p.WriteSet[1] != (Key{Table: "account", Key: 9}) {
		t.Fatalf("prepare record mismatch: %+v", p)
	}
	if recs[3].Type != TCommit || recs[3].TS != 7 || recs[5].Type != TAbort || recs[5].TS != 8 {
		t.Fatalf("decision records mismatch: %+v %+v", recs[3], recs[5])
	}
}

func TestWALAnalyzeStatuses(t *testing.T) {
	l := New(0, 0)
	l.AppendUpdate(1, "t", 1, row(1, 10), true) // committed
	l.AppendCommit(1)
	l.AppendUpdate(2, "t", 2, row(2, 20), true) // aborted
	l.AppendAbort(2)
	l.AppendUpdate(3, "t", 3, row(3, 30), true) // active (in flight at crash)
	l.AppendUpdate(4, "t", 4, row(4, 40), true) // prepared (in doubt)
	l.AppendPrepare(4, []Key{{Table: "t", Key: 4}})

	an := Analyze(l.Snapshot())
	if an.Records != 7 {
		t.Fatalf("analyzed %d records, want 7", an.Records)
	}
	wantStatus := map[uint64]Status{1: StatusCommitted, 2: StatusAborted, 3: StatusActive, 4: StatusPrepared}
	for ts, want := range wantStatus {
		tl := an.Txns[ts]
		if tl == nil || tl.Status != want {
			t.Fatalf("txn %d status %v, want %v", ts, tl, want)
		}
	}
	if len(an.Txns[3].Undo) != 1 || an.Txns[3].Undo[0].Key != 3 {
		t.Fatalf("active txn undo chain wrong: %+v", an.Txns[3].Undo)
	}
	if len(an.Txns[4].WriteSet) != 1 {
		t.Fatalf("prepared txn write-set wrong: %+v", an.Txns[4].WriteSet)
	}
	// Finished incarnations carry no undo: their writes are resolved.
	if len(an.Txns[1].Undo) != 0 || len(an.Txns[2].Undo) != 0 {
		t.Fatalf("finished txns should have empty undo: %+v %+v", an.Txns[1], an.Txns[2])
	}
}

// Wait-die retries reuse the transaction timestamp, so a log can hold
// several incarnations of one ts. A decision record must close the
// incarnation: later updates start a fresh undo chain, and analysis must
// never mix the finished incarnation's before-images into the live one.
func TestWALAnalyzeIncarnations(t *testing.T) {
	l := New(0, 0)
	l.AppendUpdate(5, "t", 1, row(1, 100), true) // attempt 1
	l.AppendPrepare(5, []Key{{Table: "t", Key: 1}})
	l.AppendAbort(5)                             // attempt 1 rolled back
	l.AppendUpdate(5, "t", 2, row(2, 200), true) // attempt 2, different key

	an := Analyze(l.Snapshot())
	tl := an.Txns[5]
	if tl.Status != StatusActive {
		t.Fatalf("post-abort incarnation status %v, want active", tl.Status)
	}
	if len(tl.Undo) != 1 || tl.Undo[0].Key != 2 {
		t.Fatalf("undo chain must contain only attempt 2: %+v", tl.Undo)
	}
	if len(tl.WriteSet) != 0 {
		t.Fatalf("stale write-set leaked across incarnations: %+v", tl.WriteSet)
	}
}

func TestWALEmptyLog(t *testing.T) {
	an := Analyze(nil)
	if an.Records != 0 || an.Bytes != 0 || len(an.Txns) != 0 {
		t.Fatalf("empty log analysis: %+v", an)
	}
}

// A crash mid-append leaves a torn final record. Truncating the image at
// every possible byte offset must recover exactly the records whose
// frames fit in the prefix — never an error, never a partial record.
func TestWALTornTail(t *testing.T) {
	l := New(0, 0)
	l.AppendUpdate(1, "account", 3, row(3, 1000, "alice"), true)
	l.AppendPrepare(1, []Key{{Table: "account", Key: 3}})
	l.AppendCommit(1)
	img := l.Snapshot()

	// Record boundaries, for computing how many records a prefix holds.
	var bounds []int
	off := 0
	Iterate(img, func(Record) bool {
		return true
	})
	for off < len(img) {
		n := 8 + int(uint32(img[off])|uint32(img[off+1])<<8|uint32(img[off+2])<<16|uint32(img[off+3])<<24)
		off += n
		bounds = append(bounds, off)
	}
	if len(bounds) != 3 {
		t.Fatalf("expected 3 records, got %d", len(bounds))
	}
	for cut := 0; cut <= len(img); cut++ {
		wantRecs := 0
		wantBytes := 0
		for _, b := range bounds {
			if b <= cut {
				wantRecs++
				wantBytes = b
			}
		}
		an := Analyze(img[:cut])
		if an.Records != wantRecs || an.Bytes != wantBytes {
			t.Fatalf("cut at %d: got %d records / %d bytes, want %d / %d",
				cut, an.Records, an.Bytes, wantRecs, wantBytes)
		}
	}
}

func TestWALCorruptRecordStopsScan(t *testing.T) {
	l := New(0, 0)
	l.AppendUpdate(1, "t", 1, row(1, 10), true)
	l.AppendUpdate(2, "t", 2, row(2, 20), true)
	img := l.Snapshot()
	// Flip a payload byte of the second record: CRC must reject it and
	// the scan must stop after the first.
	an0 := Analyze(img)
	if an0.Records != 2 {
		t.Fatalf("setup: %d records", an0.Records)
	}
	img[len(img)-1] ^= 0xFF
	an := Analyze(img)
	if an.Records != 1 {
		t.Fatalf("corrupt tail: analyzed %d records, want 1", an.Records)
	}
}

func TestWALForceAccounting(t *testing.T) {
	l := New(0, 0)
	l.AppendUpdate(1, "t", 1, row(1, 10), true) // not forced
	if l.Forces() != 0 {
		t.Fatalf("update must not force: %d", l.Forces())
	}
	l.AppendPrepare(1, nil)
	l.AppendCommit(1)
	if l.Forces() != 2 {
		t.Fatalf("prepare+commit must force once each: %d", l.Forces())
	}
	l.AppendAbort(2)
	if l.Forces() != 2 {
		t.Fatalf("abort must not force (presumed abort): %d", l.Forces())
	}
}

// Compaction drops finished transactions and preserves live ones
// byte-for-byte semantically: analysis before == analysis after.
func TestWALCompaction(t *testing.T) {
	l := New(0, 1) // compact on every append
	for ts := uint64(1); ts <= 50; ts++ {
		l.AppendUpdate(ts, "t", int64(ts), row(int(ts), 10), true)
		l.AppendCommit(ts)
	}
	// One live in-doubt txn and one active txn interleaved.
	l.AppendUpdate(1000, "t", 999, row(999, 1), true)
	l.AppendPrepare(1000, []Key{{Table: "t", Key: 999}})
	l.AppendUpdate(1001, "t", 998, row(998, 2), true)
	for ts := uint64(51); ts <= 60; ts++ {
		l.AppendUpdate(ts, "t", int64(ts), row(int(ts), 10), true)
		l.AppendCommit(ts)
	}
	if l.Compactions() == 0 {
		t.Fatal("compaction never ran")
	}
	an := Analyze(l.Snapshot())
	if len(an.Txns) != 2 {
		t.Fatalf("compacted log holds %d txns, want the 2 live ones", len(an.Txns))
	}
	if tl := an.Txns[1000]; tl == nil || tl.Status != StatusPrepared || len(tl.WriteSet) != 1 || len(tl.Undo) != 1 {
		t.Fatalf("in-doubt txn mangled by compaction: %+v", tl)
	}
	if tl := an.Txns[1001]; tl == nil || tl.Status != StatusActive || len(tl.Undo) != 1 {
		t.Fatalf("active txn mangled by compaction: %+v", tl)
	}
}

// Compaction rewrites the buffer in place under the log lock, and a
// crash can land at any instant around it. Snapshot models the crash
// (it captures exactly what is durable); every image taken while
// appenders are constantly tripping compaction must be fully intact —
// no torn bytes from a half-finished rewrite — and its analysis must
// still hold a live in-doubt transaction that prepared long before.
func TestWALCompactionRacesCrash(t *testing.T) {
	l := New(0, 256) // tiny bound: compaction fires constantly
	// A pinned in-doubt transaction that every compaction must carry over.
	l.AppendUpdate(7, "t", 7, row(7, 70), true)
	l.AppendPrepare(7, []Key{{Table: "t", Key: 7}})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ts := uint64(1000 * (w + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts++
				l.AppendUpdate(ts, "t", int64(ts), row(int(ts), 1), true)
				l.AppendCommit(ts)
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		img := l.Snapshot() // the crash: whatever is durable right now
		an := Analyze(img)
		if an.Bytes != len(img) {
			t.Fatalf("snapshot during compaction races is torn: %d intact of %d bytes",
				an.Bytes, len(img))
		}
		if tl := an.Txns[7]; tl == nil || tl.Status != StatusPrepared ||
			len(tl.WriteSet) != 1 || len(tl.Undo) != 1 {
			t.Fatalf("in-doubt txn lost across compaction: %+v", tl)
		}
	}
	close(stop)
	wg.Wait()
	if l.Compactions() == 0 {
		t.Fatal("compaction never ran during the race")
	}
}

// A crash can tear the log exactly at the compaction boundary: the
// compacted prefix is durable and the first record appended after the
// rewrite is torn. Every cut inside that record must recover exactly
// the compacted image — the live transactions compaction re-serialized
// — and discard the torn tail cleanly.
func TestWALTornTailAtCompactionBoundary(t *testing.T) {
	l := New(0, 1) // compact on every append
	for ts := uint64(1); ts <= 20; ts++ {
		l.AppendUpdate(ts, "t", int64(ts), row(int(ts), 10), true)
		l.AppendCommit(ts)
	}
	l.AppendUpdate(100, "t", 100, row(100, 5), true)
	l.AppendPrepare(100, []Key{{Table: "t", Key: 100}})
	if l.Compactions() == 0 {
		t.Fatal("setup: compaction never ran")
	}
	base := l.Snapshot() // the compacted image: txn 100's records only
	l.AppendUpdate(101, "t", 101, row(101, 6), true)
	full := l.Snapshot()
	// Compaction re-serializes live transactions in timestamp order, so
	// the pre-append compacted image is a byte prefix of the new one.
	if len(full) <= len(base) || !bytes.Equal(full[:len(base)], base) {
		t.Fatalf("compacted image is not a prefix: %d -> %d bytes", len(base), len(full))
	}
	for cut := len(base); cut < len(full); cut++ {
		an := Analyze(full[:cut])
		if an.Bytes != len(base) {
			t.Fatalf("cut %d: intact prefix %d bytes, want the compaction boundary %d",
				cut, an.Bytes, len(base))
		}
		if tl := an.Txns[100]; tl == nil || tl.Status != StatusPrepared ||
			len(tl.WriteSet) != 1 || len(tl.Undo) != 1 {
			t.Fatalf("cut %d: in-doubt txn mangled at compaction boundary: %+v", cut, tl)
		}
		if an.Txns[101] != nil {
			t.Fatalf("cut %d: torn record leaked into analysis: %+v", cut, an.Txns[101])
		}
	}
}

func TestWALForceLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	l := New(5*time.Millisecond, 0)
	start := time.Now()
	l.AppendCommit(1)
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("forced append returned in %v, want >= 5ms", d)
	}
}

// Compaction finds the unfinished transactions from record headers and
// decodes only their records. On random logs — interleaved transactions,
// every ending, timestamps reused by retried incarnations — that must
// reconstruct exactly what the full analysis says about the transactions
// still active or prepared, and nothing about the others.
func TestCompactionScanMatchesAnalyze(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 200; round++ {
		l := New(0, 1<<30) // never compacts: the log under test is the raw one
		for i, n := 0, rng.Intn(60); i < n; i++ {
			ts := uint64(1 + rng.Intn(8))
			switch rng.Intn(6) {
			case 0:
				l.AppendPrepare(ts, []Key{{Table: "t", Key: int64(i)}})
			case 1:
				l.AppendCommit(ts)
			case 2:
				l.AppendAbort(ts)
			default:
				l.AppendUpdate(ts, "t", int64(i), row(i, "before"), i%3 != 0)
			}
		}
		data := l.Snapshot()
		if cut := rng.Intn(4); cut == 0 && len(data) > 0 {
			data = data[:rng.Intn(len(data))] // a torn tail
		}
		full := Analyze(data)
		open := unfinished(data)
		quick := analyze(data, open)
		if quick.Bytes != full.Bytes || quick.Records != full.Records {
			t.Fatalf("round %d: scanned %d bytes / %d records, full analysis %d / %d",
				round, quick.Bytes, quick.Records, full.Bytes, full.Records)
		}
		for ts, tl := range full.Txns {
			live := tl.Status == StatusActive || tl.Status == StatusPrepared
			if _, found := open[ts]; found != live {
				t.Fatalf("round %d: txn %d is %v, header scan says unfinished=%v", round, ts, tl.Status, found)
			}
			if live && !reflect.DeepEqual(quick.Txns[ts], tl) {
				t.Fatalf("round %d: txn %d reconstructed as %+v, want %+v", round, ts, quick.Txns[ts], tl)
			}
		}
		if len(quick.Txns) != len(open) {
			t.Fatalf("round %d: decoded %d txns for %d unfinished", round, len(quick.Txns), len(open))
		}
	}
}

// Package wal implements the per-node write-ahead log of the cluster
// simulator. Each node appends an update record (with the before-image
// needed to undo it) ahead of every in-place write, a prepare record
// carrying the transaction's write-set when it votes yes in two-phase
// commit, and a commit or abort record when the transaction finishes.
// The log is the node's durability story: everything else — the lock
// table, the participant-state map, the request queue — is volatile and
// lost on a crash, and recovery reconstructs transaction state purely
// from the log (see Analyze).
//
// The "disk" is an in-memory byte buffer that survives Crash/Restart;
// the cost of an fsync is modeled by a configurable force latency,
// charged exactly once per durable record (prepare and commit are
// forced; update and abort records are not — under presumed abort an
// abort needs no flush, because the absence of a commit record already
// means abort).
//
// Records are length-prefixed and checksummed so that a torn final
// record — a crash mid-append — truncates cleanly to the last intact
// prefix instead of poisoning recovery.
package wal

import (
	"encoding/binary"
	"hash/crc32"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"schism/internal/cluster/codec"
	"schism/internal/datum"
)

// Type enumerates record types.
type Type uint8

// Record types.
const (
	// TUpdate logs one in-place row mutation with its before-image,
	// appended before the write is applied (write-ahead).
	TUpdate Type = iota + 1
	// TPrepare logs a yes vote in 2PC, with the transaction's write-set.
	TPrepare
	// TCommit logs the commit decision taking effect on this node.
	TCommit
	// TAbort logs a completed local rollback.
	TAbort
)

func (t Type) String() string {
	switch t {
	case TUpdate:
		return "update"
	case TPrepare:
		return "prepare"
	case TCommit:
		return "commit"
	case TAbort:
		return "abort"
	}
	return "invalid"
}

// Key identifies one logical tuple in a write-set.
type Key struct {
	Table string
	Key   int64
}

// Record is one decoded log record.
type Record struct {
	Type Type
	TS   uint64

	// TUpdate fields: the mutated tuple and its before-image. HadOld
	// false means the key did not exist (the write was an insert; undo
	// is a delete). Old is the pre-write row when HadOld is true.
	Table  string
	Key    int64
	HadOld bool
	Old    []datum.D

	// TPrepare field: the write-set to re-lock when recovery re-installs
	// the transaction as in-doubt.
	WriteSet []Key
}

// defaultCompactAt bounds log growth: once the buffer exceeds this many
// bytes, finished transactions' records are dropped (their effects are
// in the storage image, which is durable in this simulator). It is what a
// node keeps resident for records nobody will read again; compaction
// costs the same per appended byte whatever the bound.
const defaultCompactAt = 1 << 20

// Log is one node's write-ahead log. All methods are safe for
// concurrent use; force latency is charged outside the lock so
// concurrent flushes overlap, like independent fsyncs from a pool of
// backend threads.
type Log struct {
	mu  sync.Mutex
	buf []byte

	force     time.Duration
	compactAt int

	forces   atomic.Int64
	compacts atomic.Int64
	appended atomic.Int64 // lifetime bytes appended (framing included)
}

// New returns an empty log. force is the simulated flush latency charged
// per forced append (zero disables the sleep but still counts forces);
// compactAt bounds the buffer size before finished transactions are
// compacted away (<= 0 means the 16 MiB default).
func New(force time.Duration, compactAt int) *Log {
	if compactAt <= 0 {
		compactAt = defaultCompactAt
	}
	return &Log{force: force, compactAt: compactAt}
}

// Force charges one durable-record flush: the single place the LogForce
// cost is paid, exactly once per forced record — by the append itself,
// or by the caller of AppendPrepareAsync.
func (l *Log) Force() {
	l.forces.Add(1)
	if l.force > 0 {
		time.Sleep(l.force)
	}
}

// Forces returns the number of log flushes charged so far.
func (l *Log) Forces() int64 { return l.forces.Load() }

// Compactions returns the number of times the log compacted itself.
func (l *Log) Compactions() int64 { return l.compacts.Load() }

// BytesAppended returns the lifetime bytes written to the log,
// including record framing and regardless of later compaction.
func (l *Log) BytesAppended() int64 { return l.appended.Load() }

// Size returns the current byte size of the durable image.
func (l *Log) Size() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buf)
}

// Snapshot copies the durable image (what survives a crash).
func (l *Log) Snapshot() []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]byte, len(l.buf))
	copy(out, l.buf)
	return out
}

// AppendUpdate logs one row mutation ahead of applying it. Not forced:
// update records ride to disk with the next forced record, and in this
// simulator the buffer itself survives crashes either way.
func (l *Log) AppendUpdate(ts uint64, table string, key int64, old []datum.D, hadOld bool) {
	l.append(false, encodeUpdate(ts, table, key, old, hadOld))
}

// AppendPrepare logs a yes vote with the transaction's write-set and
// forces the log: the vote must be durable before it is acked.
func (l *Log) AppendPrepare(ts uint64, writeSet []Key) {
	l.append(true, encodePrepare(ts, writeSet))
}

// AppendPrepareAsync appends the yes-vote record but defers its forced
// flush: the caller must then call Force once — after it releases any
// locks of its own, and before the vote is acked.
func (l *Log) AppendPrepareAsync(ts uint64, writeSet []Key) {
	l.append(false, encodePrepare(ts, writeSet))
}

// AppendCommit logs the commit taking effect and forces the log.
func (l *Log) AppendCommit(ts uint64) { l.append(true, encodeDecision(TCommit, ts)) }

// AppendAbort logs a completed rollback. Not forced: presumed abort —
// if the record is lost, recovery re-runs the (idempotent) undo.
func (l *Log) AppendAbort(ts uint64) { l.append(false, encodeDecision(TAbort, ts)) }

func encodeUpdate(ts uint64, table string, key int64, old []datum.D, hadOld bool) func([]byte) []byte {
	return func(b []byte) []byte {
		b = append(b, byte(TUpdate))
		b = binary.AppendUvarint(b, ts)
		b = codec.AppendString(b, table)
		b = binary.AppendVarint(b, key)
		if hadOld {
			b = append(b, 1)
			b = codec.AppendRow(b, old)
		} else {
			b = append(b, 0)
		}
		return b
	}
}

func encodePrepare(ts uint64, writeSet []Key) func([]byte) []byte {
	return func(b []byte) []byte {
		b = append(b, byte(TPrepare))
		b = binary.AppendUvarint(b, ts)
		b = binary.AppendUvarint(b, uint64(len(writeSet)))
		for _, k := range writeSet {
			b = codec.AppendString(b, k.Table)
			b = binary.AppendVarint(b, k.Key)
		}
		return b
	}
}

func encodeDecision(t Type, ts uint64) func([]byte) []byte {
	return func(b []byte) []byte {
		b = append(b, byte(t))
		b = binary.AppendUvarint(b, ts)
		return b
	}
}

// append frames one record ([len][crc][payload]) under the lock, then
// charges the force latency outside it so concurrent flushes overlap.
func (l *Log) append(forced bool, encode func([]byte) []byte) {
	l.mu.Lock()
	l.appendLocked(encode)
	if len(l.buf) >= l.compactAt {
		l.compactLocked()
	}
	l.mu.Unlock()
	if forced {
		l.Force()
	}
}

func (l *Log) appendLocked(encode func([]byte) []byte) {
	start := len(l.buf)
	l.buf = append(l.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	l.buf = encode(l.buf)
	payload := l.buf[start+8:]
	binary.LittleEndian.PutUint32(l.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[start+4:], crc32.ChecksumIEEE(payload))
	l.appended.Add(int64(len(l.buf) - start))
}

// compactLocked drops the records of finished transactions (those whose
// latest incarnation ended in a commit or abort record): their effects
// live in the durable storage image, so recovery never needs them
// again. Unfinished transactions are re-serialized from the analysis —
// their live undo chain plus, if prepared, the prepare record — which
// preserves exactly what recovery would reconstruct.
func (l *Log) compactLocked() {
	// Nearly every record belongs to a finished transaction and is about
	// to be dropped: find the few unfinished ones from the record headers,
	// and decode only theirs.
	an := analyze(l.buf, unfinished(l.buf))
	tss := make([]uint64, 0, len(an.Txns))
	for ts, tl := range an.Txns {
		if tl.Status == StatusActive || tl.Status == StatusPrepared {
			tss = append(tss, ts)
		}
	}
	sort.Slice(tss, func(i, j int) bool { return tss[i] < tss[j] })
	l.buf = l.buf[:0] // the analysis holds copies, not views of the buffer
	for _, ts := range tss {
		tl := an.Txns[ts]
		for _, u := range tl.Undo {
			l.appendLocked(encodeUpdate(ts, u.Table, u.Key, u.Old, u.HadOld))
		}
		if tl.Status == StatusPrepared {
			// No force re-charged: the vote was already durable in the log
			// being rewritten.
			l.appendLocked(encodePrepare(ts, tl.WriteSet))
		}
	}
	l.compacts.Add(1)
}

func decode(payload []byte) (Record, bool) {
	r := codec.NewReader(payload)
	rec := Record{Type: Type(r.Byte()), TS: r.Uvarint()}
	switch rec.Type {
	case TUpdate:
		rec.Table = r.Str()
		rec.Key = r.Varint()
		rec.HadOld = r.Byte() == 1
		if rec.HadOld {
			rec.Old = r.Row(nil)
		}
	case TPrepare:
		n := r.Count(2) // a key is at least its table's length byte and a varint
		if r.Bad() {
			return rec, false
		}
		rec.WriteSet = make([]Key, n)
		for i := range rec.WriteSet {
			rec.WriteSet[i].Table = r.Str()
			rec.WriteSet[i].Key = r.Varint()
		}
	case TCommit, TAbort:
	default:
		return rec, false
	}
	return rec, !r.Bad()
}

// frame returns the payload of the record at off and its framed size. ok
// is false at end of log or at a torn/corrupt record.
func frame(data []byte, off int) (payload []byte, n int, ok bool) {
	if len(data)-off < 8 {
		return nil, 0, false
	}
	ln := int(binary.LittleEndian.Uint32(data[off:]))
	crc := binary.LittleEndian.Uint32(data[off+4:])
	if ln < 0 || ln > len(data)-off-8 {
		return nil, 0, false // torn: the tail was lost mid-append
	}
	payload = data[off+8 : off+8+ln]
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, 0, false
	}
	return payload, 8 + ln, true
}

// header reads what every payload starts with: the record type and the
// transaction timestamp.
func header(payload []byte) (Type, uint64, bool) {
	if len(payload) < 2 {
		return 0, 0, false
	}
	ts, n := binary.Uvarint(payload[1:])
	return Type(payload[0]), ts, n > 0
}

// next decodes the record at off, returning its framed size. ok is
// false at end of log or at a torn/corrupt record.
func next(data []byte, off int) (int, Record, bool) {
	payload, n, ok := frame(data, off)
	if !ok {
		return 0, Record{}, false
	}
	rec, ok := decode(payload)
	if !ok {
		return 0, Record{}, false
	}
	return n, rec, true
}

// Iterate decodes records in order until the end of the log or a
// torn/corrupt record (a crash mid-append), whichever comes first, and
// returns the byte length of the intact prefix. A torn tail is a normal
// crash artifact, not an error: recovery proceeds on the prefix.
func Iterate(data []byte, fn func(Record) bool) int {
	off := 0
	for {
		n, rec, ok := next(data, off)
		if !ok {
			return off
		}
		off += n
		if !fn(rec) {
			return off
		}
	}
}

// Status is a transaction's fate as reconstructed from the log.
type Status uint8

// Transaction statuses after analysis.
const (
	// StatusActive: updates logged but no prepare/commit/abort — the
	// transaction was in flight at the crash. Presumed abort: undo.
	StatusActive Status = iota
	// StatusPrepared: voted yes, decision unknown — in doubt. Recovery
	// re-locks the write-set and runs the termination protocol.
	StatusPrepared
	// StatusCommitted: a commit record exists; effects are durable.
	StatusCommitted
	// StatusAborted: an abort record exists; the rollback completed.
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	}
	return "invalid"
}

// TxnLog is one transaction's reconstructed state.
type TxnLog struct {
	Status Status
	// WriteSet is the prepare record's write-set (empty unless prepared).
	WriteSet []Key
	// Undo holds the transaction's update records in append order; undo
	// applies them in reverse.
	Undo []Record
}

// Analysis is the result of scanning a log image.
type Analysis struct {
	// Txns maps transaction timestamp to reconstructed state.
	Txns map[uint64]*TxnLog
	// Records is the number of intact records scanned.
	Records int
	// Bytes is the intact prefix length (== len(data) unless torn).
	Bytes int
}

// Analyze scans a log image and reconstructs per-transaction state; a
// torn tail truncates the scan to the last intact record.
//
// A commit or abort record closes the transaction's current incarnation:
// its accumulated undo chain and write-set are discarded, because those
// writes are resolved (committed in place, or already rolled back). An
// update record arriving after a decision opens a NEW incarnation of the
// same timestamp — wait-die retries reuse the timestamp by design — and
// analysis must not mix the finished incarnation's undo into the live
// one, or recovery could clobber writes other transactions committed in
// between.
func Analyze(data []byte) *Analysis { return analyze(data, nil) }

// unfinished returns the transactions whose last record in the intact
// prefix of data is not a commit or abort — the ones Analyze would report
// active or prepared — reading record headers only.
func unfinished(data []byte) map[uint64]struct{} {
	open := make(map[uint64]struct{})
	for off := 0; ; {
		payload, n, ok := frame(data, off)
		if !ok {
			return open
		}
		typ, ts, ok := header(payload)
		if !ok {
			return open
		}
		if typ == TCommit || typ == TAbort {
			delete(open, ts)
		} else {
			open[ts] = struct{}{}
		}
		off += n
	}
}

// analyze is Analyze restricted, when only is non-nil, to the transactions
// in only: other transactions' records are counted but not decoded.
func analyze(data []byte, only map[uint64]struct{}) *Analysis {
	a := &Analysis{Txns: make(map[uint64]*TxnLog)}
	for {
		payload, n, ok := frame(data, a.Bytes)
		if !ok {
			return a
		}
		if only != nil {
			_, ts, ok := header(payload)
			if !ok {
				return a
			}
			if _, wanted := only[ts]; !wanted {
				a.Bytes += n
				a.Records++
				continue
			}
		}
		r, ok := decode(payload)
		if !ok {
			return a
		}
		a.Bytes += n
		a.Records++
		tl := a.Txns[r.TS]
		if tl == nil {
			tl = &TxnLog{}
			a.Txns[r.TS] = tl
		}
		switch r.Type {
		case TUpdate:
			if tl.Status == StatusCommitted || tl.Status == StatusAborted {
				*tl = TxnLog{Status: StatusActive}
			}
			tl.Undo = append(tl.Undo, r)
		case TPrepare:
			tl.Status = StatusPrepared
			tl.WriteSet = r.WriteSet
		case TCommit:
			*tl = TxnLog{Status: StatusCommitted}
		case TAbort:
			*tl = TxnLog{Status: StatusAborted}
		}
	}
}

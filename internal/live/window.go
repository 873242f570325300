package live

import (
	"sync"

	"schism/internal/workload"
)

// WindowConfig tunes the capture window.
type WindowConfig struct {
	// Capacity is the number of most-recent transactions retained (ring
	// buffer). Default 4096.
	Capacity int
	// Decay, when in (0,1), enables exponential decay of repeated access
	// signatures: a transaction whose exact access pattern occurred o
	// positions ago contributes Decay^o to its signature's weight, and
	// snapshots emit each distinct signature round(total weight) times
	// (minimum 1) instead of once per occurrence. Hot repeated patterns
	// are therefore represented, but dominated by their recent
	// occurrences; 0 disables (every windowed transaction is emitted
	// as-is).
	Decay float64
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	return c
}

// windowTxn is one captured transaction: its packed dense accesses and the
// 64-bit hash of that access sequence (the "signature").
type windowTxn struct {
	accs []uint32
	sig  uint64
}

// Window is the live capture sink: a sliding window over the most recent
// committed transactions, stored directly in the dense interned
// representation (one Interner for the window's lifetime, packed
// dense-id|WriteBit accesses per transaction — the capture path hashes
// each access exactly once and allocates only the per-transaction packed
// slice). Safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	cfg   WindowConfig
	in    *workload.Interner
	ring  []windowTxn
	head  int    // next slot to overwrite
	count int    // live entries, <= Capacity
	total uint64 // transactions ever recorded
}

// NewWindow returns an empty capture window.
func NewWindow(cfg WindowConfig) *Window {
	cfg = cfg.withDefaults()
	return &Window{cfg: cfg, in: workload.NewInterner(), ring: make([]windowTxn, cfg.Capacity)}
}

// Record captures one committed transaction's access set and returns the
// new total recorded count (computed under the window lock, so concurrent
// recorders each observe a distinct total — the controller relies on this
// to hit its check cadence exactly). Callers may use it bare as a
// cluster.CaptureFunc-shaped sink; the slice is not retained.
func (w *Window) Record(accs []workload.Access) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(accs) == 0 {
		return w.total
	}
	packed := make([]uint32, len(accs))
	for i, a := range accs {
		e := uint32(w.in.Intern(a.Tuple))
		if a.Write {
			e |= workload.WriteBit
		}
		packed[i] = e
	}
	w.ring[w.head] = windowTxn{accs: packed, sig: sigHash(packed)}
	w.head = (w.head + 1) % len(w.ring)
	if w.count < len(w.ring) {
		w.count++
	}
	w.total++
	return w.total
}

// Len returns the number of transactions currently windowed.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.count
}

// Total returns the number of transactions ever recorded.
func (w *Window) Total() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Snapshot materialises the windowed transactions, oldest first, as a
// trace ready for graph construction or evaluation. Without decay every
// windowed transaction appears exactly once. With decay, transactions
// sharing an access signature collapse into the signature's first
// occurrence repeated round(Σ Decay^offset) times (minimum 1, capped at
// the occurrence count), biasing the snapshot toward patterns that are
// recent, not merely frequent. Snapshots are deterministic functions of
// the recorded sequence.
func (w *Window) Snapshot() *workload.Trace {
	w.mu.Lock()
	defer w.mu.Unlock()
	tr := workload.NewTrace()
	if w.count == 0 {
		return tr
	}
	oldest := (w.head - w.count + len(w.ring)) % len(w.ring)
	nth := func(i int) *windowTxn { return &w.ring[(oldest+i)%len(w.ring)] }

	if w.cfg.Decay <= 0 || w.cfg.Decay >= 1 {
		total := 0
		for i := 0; i < w.count; i++ {
			total += len(nth(i).accs)
		}
		buf := make([]workload.Access, total)
		for i := 0; i < w.count; i++ {
			buf = w.rehydrate(tr, buf, nth(i).accs)
		}
		return tr
	}

	// Decayed signature weights: offset o counts back from the newest
	// entry (o=0), so weight(sig) = Σ_occurrences Decay^o.
	type sigAgg struct {
		weight float64
		occs   int
		first  int // first (oldest) occurrence index
		emit   int // copies of the first occurrence in the snapshot
	}
	aggs := make(map[uint64]*sigAgg, w.count)
	pow := 1.0
	for i := w.count - 1; i >= 0; i-- {
		t := nth(i)
		a := aggs[t.sig]
		if a == nil {
			a = &sigAgg{}
			aggs[t.sig] = a
		}
		a.weight += pow
		a.occs++
		a.first = i
		pow *= w.cfg.Decay
	}
	total := 0
	for _, a := range aggs {
		a.emit = min(max(int(a.weight+0.5), 1), a.occs)
		total += a.emit * len(nth(a.first).accs)
	}
	buf := make([]workload.Access, total)
	for i := 0; i < w.count; i++ {
		t := nth(i)
		if a := aggs[t.sig]; a.first == i {
			for c := 0; c < a.emit; c++ {
				buf = w.rehydrate(tr, buf, t.accs)
			}
		}
	}
	return tr
}

// rehydrate appends one transaction to tr, converting its packed accesses
// back to workload.Access values in the front of buf — the snapshot's one
// backing array — and returns the rest of buf. The transaction's slice is
// capped at its length, so an append to it reallocates instead of running
// into the next transaction's accesses.
func (w *Window) rehydrate(tr *workload.Trace, buf []workload.Access, packed []uint32) []workload.Access {
	out := buf[:len(packed):len(packed)]
	for i, e := range packed {
		out[i] = workload.Access{
			Tuple: w.in.TupleOf(int32(e &^ workload.WriteBit)),
			Write: e&workload.WriteBit != 0,
		}
	}
	tr.Add(out)
	return buf[len(packed):]
}

// sigHash is an FNV-1a-style hash of the packed access sequence; it only
// groups transactions for decay, so collisions merely merge their decayed
// weights.
func sigHash(packed []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, e := range packed {
		h ^= uint64(e)
		h *= prime64
		h ^= h >> 29
	}
	return h
}

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
// representation (packed dense-id|WriteBit accesses per transaction). The
// capture path hashes each access exactly once and, once the ring is
// full, allocates only when it meets a new tuple: a recorded transaction
// is packed into the backing array of the slot it evicts. Snapshots hand
// that dense form on (see Snapshot), so nothing downstream hashes a
// windowed tuple again. Safe for concurrent use.
type Window struct {
	mu    sync.Mutex
	cfg   WindowConfig
	ring  []windowTxn
	head  int    // next slot to overwrite
	count int    // live entries, <= Capacity
	total uint64 // transactions ever recorded

	// in interns every tuple recorded since the last reintern, evicted
	// ones included; live is how many of them the ring still referenced
	// when last counted (by a snapshot or a reintern). Record reinterns
	// once in.Len() passes twice that, which bounds the interner by the
	// window's contents instead of the controller's lifetime.
	in   *workload.Interner
	live int

	// Snapshot and reintern scratch, indexed by window id: remap[d] is
	// d's id in the pass under way, valid when stamp[d] == epoch. order
	// lists the window ids in the order the pass first met them.
	remap []int32
	stamp []uint32
	epoch uint32
	order []int32
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
	// Snapshot copies out under the lock, so nothing aliases the evicted
	// slot's array.
	slot := &w.ring[w.head]
	packed := slot.accs[:0]
	for _, a := range accs {
		e := uint32(w.in.Intern(a.Tuple))
		if a.Write {
			e |= workload.WriteBit
		}
		packed = append(packed, e)
	}
	*slot = windowTxn{accs: packed, sig: sigHash(packed)}
	w.head = (w.head + 1) % len(w.ring)
	if w.count < len(w.ring) {
		w.count++
	}
	w.total++
	// Nothing is evicted, so nothing can have leaked, until the ring wraps.
	if w.total > uint64(len(w.ring)) && w.in.Len() > 2*w.live {
		w.reintern()
	}
	return w.total
}

// nth returns the i-th oldest windowed transaction.
func (w *Window) nth(i int) *windowTxn {
	oldest := (w.head - w.count + len(w.ring)) % len(w.ring)
	return &w.ring[(oldest+i)%len(w.ring)]
}

// beginPass starts a renumbering pass over the window's dense ids.
func (w *Window) beginPass() {
	if n := w.in.Len(); len(w.stamp) < n {
		w.remap = append(w.remap, make([]int32, n-len(w.remap))...)
		w.stamp = append(w.stamp, make([]uint32, n-len(w.stamp))...)
	}
	w.epoch++
	if w.epoch == 0 { // wrapped: stale stamps could match again
		clear(w.stamp)
		w.epoch = 1
	}
	w.order = w.order[:0]
}

// renumber returns window id d's id in the current pass, assigning the
// next one (and appending d to order) the first time the pass meets it.
func (w *Window) renumber(d uint32) uint32 {
	if w.stamp[d] != w.epoch {
		w.stamp[d] = w.epoch
		w.remap[d] = int32(len(w.order))
		w.order = append(w.order, int32(d))
	}
	return uint32(w.remap[d])
}

// passTuples returns the tuples the pass met, indexed by the ids it gave
// them, in a slice with room for spare more.
func (w *Window) passTuples(spare int) []workload.TupleID {
	tuples := make([]workload.TupleID, len(w.order), len(w.order)+spare)
	for i, d := range w.order {
		tuples[i] = w.in.TupleOf(d)
	}
	return tuples
}

// reintern replaces the interner with one holding only the tuples the
// ring still references and rewrites the ring to its ids. Signatures are
// recomputed from the new ids, so a pattern recorded later still hashes
// like its windowed occurrences. A reintern that keeps n tuples leaves
// room for n more — which is when the next one is due — so it hashes
// each kept tuple once and Record allocates nothing in between.
func (w *Window) reintern() {
	w.beginPass()
	for i := 0; i < w.count; i++ {
		t := w.nth(i)
		for j, e := range t.accs {
			t.accs[j] = w.renumber(e&^workload.WriteBit) | e&workload.WriteBit
		}
		t.sig = sigHash(t.accs)
	}
	w.live = len(w.order)
	w.in = workload.InternerOf(w.passTuples(w.live))
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
//
// The trace is compact-only (workload.FromCompact): the ring's dense ids
// renumbered in order of first appearance in the snapshot, which is
// exactly what interning the transactions would assign, and no Txns.
// Its interner indexes tuples by id only and builds the reverse maps if
// someone asks for a tuple's id.
func (w *Window) Snapshot() *workload.Trace {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.count == 0 {
		return workload.NewTrace()
	}

	emit := w.copies()
	txns, total := 0, 0
	for i, n := range emit {
		txns += int(n)
		total += int(n) * len(w.nth(i).accs)
	}
	c := &workload.Compact{Off: make([]int32, 1, txns+1), Accs: make([]uint32, 0, total)}
	w.beginPass()
	for i := 0; i < w.count; i++ {
		t := w.nth(i)
		for copies := emit[i]; copies > 0; copies-- {
			for _, e := range t.accs {
				c.Accs = append(c.Accs, w.renumber(e&^workload.WriteBit)|e&workload.WriteBit)
			}
			c.Off = append(c.Off, int32(len(c.Accs)))
		}
	}
	c.In = workload.InternerOf(w.passTuples(0))
	w.live = len(w.order)
	return workload.FromCompact(c)
}

// copies returns, per windowed transaction (oldest first), how many
// copies of it a snapshot emits. Without decay, one each. With decay,
// round(Σ Decay^offset) over the occurrences of its signature for the
// signature's oldest occurrence and zero for the later ones; offset o
// counts back from the newest entry (o=0).
func (w *Window) copies() []int32 {
	emit := make([]int32, w.count)
	if w.cfg.Decay <= 0 || w.cfg.Decay >= 1 {
		for i := range emit {
			emit[i] = 1
		}
		return emit
	}
	type sigAgg struct {
		weight float64
		occs   int
		first  int // first (oldest) occurrence index
	}
	// One aggregate per distinct signature, kept in a slice the map indexes,
	// so a snapshot allocates per array growth, not per signature.
	var aggs []sigAgg
	index := make(map[uint64]int32, w.count)
	pow := 1.0
	for i := w.count - 1; i >= 0; i-- {
		sig := w.nth(i).sig
		ai, ok := index[sig]
		if !ok {
			ai = int32(len(aggs))
			index[sig] = ai
			aggs = append(aggs, sigAgg{})
		}
		a := &aggs[ai]
		a.weight += pow
		a.occs++
		a.first = i
		pow *= w.cfg.Decay
	}
	for _, a := range aggs {
		emit[a.first] = int32(min(max(int(a.weight+0.5), 1), a.occs))
	}
	return emit
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

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
}

func (c WindowConfig) withDefaults() WindowConfig {
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	return c
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
	ring  [][]uint32 // per transaction, its packed dense accesses
	head  int        // next slot to overwrite
	count int        // live entries, <= Capacity
	total uint64     // transactions ever recorded

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
	return &Window{in: workload.NewInterner(), ring: make([][]uint32, cfg.Capacity)}
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
	packed := w.ring[w.head][:0]
	for _, a := range accs {
		e := uint32(w.in.Intern(a.Tuple))
		if a.Write {
			e |= workload.WriteBit
		}
		packed = append(packed, e)
	}
	w.ring[w.head] = packed
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

// nth returns the i-th oldest windowed transaction's packed accesses.
func (w *Window) nth(i int) []uint32 {
	oldest := (w.head - w.count + len(w.ring)) % len(w.ring)
	return w.ring[(oldest+i)%len(w.ring)]
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
// ring still references and rewrites the ring to its ids. A reintern that
// keeps n tuples leaves room for n more — which is when the next one is
// due — so it hashes each kept tuple once and Record allocates nothing in
// between.
func (w *Window) reintern() {
	w.beginPass()
	for i := 0; i < w.count; i++ {
		accs := w.nth(i)
		for j, e := range accs {
			accs[j] = w.renumber(e&^workload.WriteBit) | e&workload.WriteBit
		}
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

// Snapshot materialises the windowed transactions, oldest first and each
// exactly once, as a trace ready for graph construction or evaluation.
// Snapshots are deterministic functions of the recorded sequence.
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

	total := 0
	for i := 0; i < w.count; i++ {
		total += len(w.nth(i))
	}
	c := &workload.Compact{Off: make([]int32, 1, w.count+1), Accs: make([]uint32, 0, total)}
	w.beginPass()
	for i := 0; i < w.count; i++ {
		for _, e := range w.nth(i) {
			c.Accs = append(c.Accs, w.renumber(e&^workload.WriteBit)|e&workload.WriteBit)
		}
		c.Off = append(c.Off, int32(len(c.Accs)))
	}
	c.In = workload.InternerOf(w.passTuples(0))
	w.live = len(w.order)
	return workload.FromCompact(c)
}

// Package txn provides the concurrency-control substrate for the cluster
// simulator: a strict two-phase-locking row lock manager with wait-die
// deadlock avoidance. Wait-die uses globally ordered transaction
// timestamps, so no deadlock can form even across nodes — the paper (§3)
// names distributed deadlocks as one of the costs of distributed
// transactions; wait-die converts them into (observable, counted) aborts.
package txn

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// TS is a transaction's globally unique timestamp; smaller is older, and
// older transactions have priority under wait-die.
type TS uint64

// Clock allocates transaction timestamps.
type Clock struct{ c atomic.Uint64 }

// Next returns the next timestamp.
func (c *Clock) Next() TS { return TS(c.c.Add(1)) }

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// LockKey identifies a lockable row.
type LockKey struct {
	Table string
	Key   int64
}

// Errors returned by Acquire.
var (
	// ErrDie means the requester is younger than a conflicting holder and
	// must abort and retry with the SAME timestamp (wait-die).
	ErrDie = errors.New("txn: wait-die abort")
	// ErrTimeout means the lock wait exceeded the manager's bound.
	ErrTimeout = errors.New("txn: lock wait timeout")
	// ErrShutdown means the lock manager was closed (its node crashed)
	// while the lock was requested or awaited.
	ErrShutdown = errors.New("txn: lock manager shut down")
)

// LockManager is a per-node row lock table.
type LockManager struct {
	mu      sync.Mutex
	locks   map[LockKey]*lockState
	byTxn   map[TS][]LockKey // the keys each transaction holds, once each
	maxWait time.Duration
	closed  bool

	// freeStates and freeKeys recycle dropped entries and the key lists
	// of transactions that released their locks, so a steady load
	// allocates neither. Each holds at most as many as the node ever had
	// in use at once.
	freeStates []*lockState
	freeKeys   [][]LockKey

	waits    atomic.Int64 // acquisitions that had to queue
	dies     atomic.Int64 // wait-die aborts (immediate and queued)
	timeouts atomic.Int64 // lock waits that hit maxWait
}

// LockStats is a snapshot of the manager's contention counters.
type LockStats struct {
	Waits    int64
	Dies     int64
	Timeouts int64
}

// Stats returns the contention counters accumulated since creation.
func (lm *LockManager) Stats() LockStats {
	return LockStats{
		Waits:    lm.waits.Load(),
		Dies:     lm.dies.Load(),
		Timeouts: lm.timeouts.Load(),
	}
}

// lockState is one key's entry: its holders in grant order and its
// FIFO queue of waiters. A key has one or two holders almost always, so
// the holder list starts in the entry itself; the entry is dropped when
// its last holder and waiter leave, and kept for the next key locked.
type lockState struct {
	holders []holder // inline[:0] until a third holder joins
	inline  [2]holder
	queue   []*waiter
}

type holder struct {
	ts   TS
	mode Mode
}

// holder returns ts's index in the holder list, or -1.
func (ls *lockState) holder(ts TS) int {
	for i, h := range ls.holders {
		if h.ts == ts {
			return i
		}
	}
	return -1
}

type waiter struct {
	ts    TS
	mode  Mode
	ready chan error
}

// NewLockManager returns a lock manager; maxWait bounds each lock wait
// (0 means a 10s default).
func NewLockManager(maxWait time.Duration) *LockManager {
	if maxWait <= 0 {
		maxWait = 10 * time.Second
	}
	return &LockManager{
		locks:   make(map[LockKey]*lockState),
		byTxn:   make(map[TS][]LockKey),
		maxWait: maxWait,
	}
}

// Acquire takes the lock in the given mode for transaction ts, blocking if
// wait-die permits waiting. It is idempotent for already-held locks of the
// same or stronger mode, and upgrades Shared->Exclusive when possible.
func (lm *LockManager) Acquire(ts TS, key LockKey, mode Mode) error {
	lm.mu.Lock()
	if lm.closed {
		lm.mu.Unlock()
		return ErrShutdown
	}
	ls := lm.locks[key]
	if ls == nil {
		ls = lm.newState()
		lm.locks[key] = ls
	}
	if i := ls.holder(ts); i >= 0 {
		if ls.holders[i].mode == Exclusive || mode == Shared {
			lm.mu.Unlock()
			return nil
		}
		// Upgrade request: conflicts with every OTHER holder.
	}
	if lm.grantable(ls, ts, mode) {
		lm.grant(ls, ts, key, mode)
		lm.mu.Unlock()
		return nil
	}
	// Wait-die: wait only if older (smaller ts) than every conflicting
	// holder AND every conflicting waiter it would queue behind — both
	// block the grant (grantable), so ts would wait for either; otherwise
	// die immediately.
	if ls.olderConflict(ts, mode) {
		lm.mu.Unlock()
		lm.dies.Add(1)
		return ErrDie
	}
	w := &waiter{ts: ts, mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, w)
	lm.waits.Add(1)
	lm.mu.Unlock()

	timer := time.NewTimer(lm.maxWait)
	defer timer.Stop()
	select {
	case err := <-w.ready:
		return err
	case <-timer.C:
		lm.mu.Lock()
		// Remove from queue if still present; if a grant raced with the
		// timeout, honour the grant. Absent, w was granted, failed or shut
		// down, each of which answered it: ls may by now be another key's
		// entry, whose queue w cannot be in. The waiters w held back may
		// now be grantable.
		if i := slices.Index(ls.queue, w); i >= 0 {
			ls.queue = slices.Delete(ls.queue, i, i+1)
			lm.wake(ls, key)
			lm.dropIfIdle(ls, key)
			lm.mu.Unlock()
			lm.timeouts.Add(1)
			return ErrTimeout
		}
		lm.mu.Unlock()
		return <-w.ready
	}
}

// grantable reports whether ts may take the lock in mode right now. Queued
// waiters block new grants (FIFO fairness) except for re-entrant holders.
func (lm *LockManager) grantable(ls *lockState, ts TS, mode Mode) bool {
	for _, w := range ls.queue {
		if w.ts != ts && conflicts(w.mode, mode) {
			return false
		}
	}
	return !ls.holderConflict(ts, mode)
}

// holderConflict reports whether a holder other than ts holds a mode
// that conflicts with mode.
func (ls *lockState) holderConflict(ts TS, mode Mode) bool {
	for _, h := range ls.holders {
		if h.ts != ts && conflicts(h.mode, mode) {
			return true
		}
	}
	return false
}

// olderConflict reports whether a holder or queued waiter other than ts
// is older than ts and holds or wants a mode that conflicts with mode.
func (ls *lockState) olderConflict(ts TS, mode Mode) bool {
	for _, h := range ls.holders {
		if h.ts != ts && conflicts(h.mode, mode) && h.ts < ts {
			return true
		}
	}
	for _, w := range ls.queue {
		if w.ts != ts && conflicts(w.mode, mode) && w.ts < ts {
			return true
		}
	}
	return false
}

// grant makes ts a holder of key in mode. A holder's mode only ever
// rises, and only a new holder adds the key to ts's list, so the list
// holds each key once however often ts re-requests or upgrades it.
func (lm *LockManager) grant(ls *lockState, ts TS, key LockKey, mode Mode) {
	if i := ls.holder(ts); i >= 0 {
		if mode == Exclusive {
			ls.holders[i].mode = Exclusive
		}
		return
	}
	ls.holders = append(ls.holders, holder{ts, mode})
	keys, ok := lm.byTxn[ts]
	if n := len(lm.freeKeys); !ok && n > 0 {
		keys = lm.freeKeys[n-1]
		lm.freeKeys = lm.freeKeys[:n-1]
	}
	lm.byTxn[ts] = append(keys, key)
}

// newState returns an empty entry, a dropped one when there is one.
func (lm *LockManager) newState() *lockState {
	if n := len(lm.freeStates); n > 0 {
		ls := lm.freeStates[n-1]
		lm.freeStates = lm.freeStates[:n-1]
		return ls
	}
	ls := &lockState{}
	ls.holders = ls.inline[:0]
	return ls
}

// dropIfIdle removes key's entry once no holder or waiter is left and
// keeps it, emptied, for newState. A waiter that later times out finds
// itself in no queue of the reused entry, so it cannot act on it.
func (lm *LockManager) dropIfIdle(ls *lockState, key LockKey) {
	if len(ls.holders) > 0 || len(ls.queue) > 0 {
		return
	}
	delete(lm.locks, key)
	*ls = lockState{}
	ls.holders = ls.inline[:0]
	lm.freeStates = append(lm.freeStates, ls)
}

func conflicts(a, b Mode) bool { return a == Exclusive || b == Exclusive }

// ReleaseAll drops every lock held by ts and wakes eligible waiters.
func (lm *LockManager) ReleaseAll(ts TS) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	keys, ok := lm.byTxn[ts]
	if !ok {
		return
	}
	delete(lm.byTxn, ts)
	for _, key := range keys {
		ls := lm.locks[key]
		if ls == nil {
			continue
		}
		if i := ls.holder(ts); i >= 0 {
			ls.holders = slices.Delete(ls.holders, i, i+1)
		}
		// Also drop any queued waiter for ts (a txn aborting while a
		// concurrent statement waits).
		for i := 0; i < len(ls.queue); {
			if ls.queue[i].ts == ts {
				ls.queue[i].ready <- ErrDie
				lm.dies.Add(1)
				ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
				continue
			}
			i++
		}
		lm.wake(ls, key)
		lm.dropIfIdle(ls, key)
	}
	clear(keys)
	lm.freeKeys = append(lm.freeKeys, keys[:0])
}

// wake grants queued waiters in FIFO order while they remain compatible,
// then re-applies wait-die to the waiters left behind: a waiter younger
// than a conflicting CURRENT holder must die, or the young-waits-on-old
// edge it now represents could close a deadlock cycle that wait-die's
// ordering argument forbids.
func (lm *LockManager) wake(ls *lockState, key LockKey) {
	for len(ls.queue) > 0 {
		w := ls.queue[0]
		if ls.holderConflict(w.ts, w.mode) {
			break
		}
		ls.queue = ls.queue[1:]
		lm.grant(ls, w.ts, key, w.mode)
		w.ready <- nil
	}
	for i := 0; i < len(ls.queue); {
		w := ls.queue[i]
		die := false
		for _, h := range ls.holders {
			if h.ts != w.ts && conflicts(h.mode, w.mode) && w.ts > h.ts {
				die = true
				break
			}
		}
		if die {
			w.ready <- ErrDie
			lm.dies.Add(1)
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			continue
		}
		i++
	}
}

// Close shuts the lock manager down: every queued waiter is failed with
// ErrShutdown immediately and all subsequent Acquire calls fail the same
// way. A node calls this when it crashes so workers blocked on its lock
// table unwind promptly instead of waiting out their timeout against a
// lock holder that no longer exists.
func (lm *LockManager) Close() {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if lm.closed {
		return
	}
	lm.closed = true
	for key, ls := range lm.locks {
		for _, w := range ls.queue {
			w.ready <- ErrShutdown
		}
		ls.queue = nil
		delete(lm.locks, key)
	}
	lm.byTxn = make(map[TS][]LockKey)
	lm.freeStates, lm.freeKeys = nil, nil
}

// HeldLocks returns the number of locks ts currently holds (for tests and
// metrics).
func (lm *LockManager) HeldLocks(ts TS) int {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.byTxn[ts])
}

package txn

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func key(k int64) LockKey { return LockKey{Table: "t", Key: k} }

func TestSharedLocksCoexist(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.Acquire(1, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	lm.ReleaseAll(1)
	lm.ReleaseAll(2)
}

func TestExclusiveConflictWaitDie(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.Acquire(1, key(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	// Younger (ts=2) conflicting with older holder: dies immediately.
	if err := lm.Acquire(2, key(1), Exclusive); !errors.Is(err, ErrDie) {
		t.Fatalf("younger should die, got %v", err)
	}
	// Older (ts=0 is impossible; use a new manager scenario): holder 5,
	// requester 3 (older) waits until release.
	lm2 := NewLockManager(time.Second)
	if err := lm2.Acquire(5, key(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- lm2.Acquire(3, key(1), Exclusive) }()
	select {
	case err := <-done:
		t.Fatalf("older requester should block, got %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	lm2.ReleaseAll(5)
	if err := <-done; err != nil {
		t.Fatalf("older requester should acquire after release: %v", err)
	}
}

func TestReentrantAndUpgrade(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.Acquire(1, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(1, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	// Sole shared holder upgrades.
	if err := lm.Acquire(1, key(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	// Now exclusive: a shared request from a younger txn dies.
	if err := lm.Acquire(2, key(1), Shared); !errors.Is(err, ErrDie) {
		t.Fatalf("got %v", err)
	}
	// Re-entrant shared after upgrade keeps exclusive.
	if err := lm.Acquire(1, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, key(1), Shared); !errors.Is(err, ErrDie) {
		t.Fatalf("exclusive downgraded: %v", err)
	}
}

func TestUpgradeContested(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.Acquire(1, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(2, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	// Younger holder 2 upgrading conflicts with older holder 1: dies.
	if err := lm.Acquire(2, key(1), Exclusive); !errors.Is(err, ErrDie) {
		t.Fatalf("got %v", err)
	}
	// Older holder 1 upgrading waits for 2's release.
	done := make(chan error, 1)
	go func() { done <- lm.Acquire(1, key(1), Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	lm.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatalf("upgrade after release: %v", err)
	}
}

func TestTimeout(t *testing.T) {
	lm := NewLockManager(30 * time.Millisecond)
	if err := lm.Acquire(5, key(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := lm.Acquire(3, key(1), Exclusive) // older: waits, then times out
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Error("timed out too early")
	}
	lm.ReleaseAll(5)
	lm.ReleaseAll(3)
}

func TestReleaseWakesFIFO(t *testing.T) {
	lm := NewLockManager(time.Second)
	if err := lm.Acquire(10, key(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	var order []TS
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, ts := range []TS{3, 2} { // both older than 10, so both wait
		wg.Add(1)
		ts := ts
		go func() {
			defer wg.Done()
			if err := lm.Acquire(ts, key(1), Exclusive); err != nil {
				t.Errorf("ts %d: %v", ts, err)
				return
			}
			mu.Lock()
			order = append(order, ts)
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			lm.ReleaseAll(ts)
		}()
		time.Sleep(10 * time.Millisecond) // enforce queue order 3 then 2
	}
	lm.ReleaseAll(10)
	wg.Wait()
	if len(order) != 2 || order[0] != 3 || order[1] != 2 {
		t.Fatalf("wake order %v, want [3 2] (FIFO)", order)
	}
}

func TestHeldLocks(t *testing.T) {
	lm := NewLockManager(time.Second)
	for i := int64(0); i < 5; i++ {
		if err := lm.Acquire(1, key(i), Shared); err != nil {
			t.Fatal(err)
		}
	}
	if got := lm.HeldLocks(1); got != 5 {
		t.Fatalf("held = %d", got)
	}
	lm.ReleaseAll(1)
	if got := lm.HeldLocks(1); got != 0 {
		t.Fatalf("after release = %d", got)
	}
}

// TestNoLostExclusion hammers one lock from many goroutines and checks
// mutual exclusion of exclusive holders via a shared counter.
func TestNoLostExclusion(t *testing.T) {
	lm := NewLockManager(time.Second)
	var clock Clock
	var inCrit atomic.Int32
	var violations atomic.Int32
	var commits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(clock.Next())))
			for i := 0; i < 200; i++ {
				ts := clock.Next()
				err := lm.Acquire(ts, key(7), Exclusive)
				if err != nil {
					lm.ReleaseAll(ts)
					continue // died; retry loop moves on
				}
				if inCrit.Add(1) != 1 {
					violations.Add(1)
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Microsecond)
				}
				inCrit.Add(-1)
				commits.Add(1)
				lm.ReleaseAll(ts)
			}
		}()
	}
	wg.Wait()
	if violations.Load() > 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("no transaction ever acquired the lock")
	}
}

// TestNoDeadlockUnderConflicts runs transactions that lock two keys in
// opposite orders; wait-die must keep the system live (every goroutine
// finishes well before the lock timeout).
func TestNoDeadlockUnderConflicts(t *testing.T) {
	lm := NewLockManager(5 * time.Second)
	var clock Clock
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		g := g
		go func() {
			defer wg.Done()
			keys := []int64{1, 2}
			if g%2 == 1 {
				keys = []int64{2, 1}
			}
			done := 0
			for done < 50 {
				ts := clock.Next()
				ok := true
				for _, k := range keys {
					if err := lm.Acquire(ts, key(k), Exclusive); err != nil {
						ok = false
						break
					}
				}
				lm.ReleaseAll(ts)
				if ok {
					done++
				}
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("conflicting workload took %v; deadlock suspected", elapsed)
	}
}

func TestClockMonotonic(t *testing.T) {
	var c Clock
	prev := c.Next()
	for i := 0; i < 1000; i++ {
		ts := c.Next()
		if ts <= prev {
			t.Fatal("clock not monotonic")
		}
		prev = ts
	}
}

// waitQueued blocks until the manager has queued n acquisitions in all.
func waitQueued(t *testing.T, lm *LockManager, n int64) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for lm.Stats().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d acquisitions queued, want %d", lm.Stats().Waits, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWaitDieUpgradeBehindOlderWaiter: ts 5 holds k shared and ts 3
// queues for it exclusive; ts 5's upgrade would queue behind the older
// ts 3, which waits for ts 5 — it must die at once, not time out.
func TestWaitDieUpgradeBehindOlderWaiter(t *testing.T) {
	lm := NewLockManager(2 * time.Second)
	if err := lm.Acquire(5, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	older := make(chan error, 1)
	go func() { older <- lm.Acquire(3, key(1), Exclusive) }()
	waitQueued(t, lm, 1)
	start := time.Now()
	if err := lm.Acquire(5, key(1), Exclusive); !errors.Is(err, ErrDie) {
		t.Fatalf("upgrade behind an older waiter: got %v, want ErrDie", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("upgrade took %v to die", d)
	}
	lm.ReleaseAll(5)
	if err := <-older; err != nil {
		t.Fatalf("older waiter after the younger aborted: %v", err)
	}
	lm.ReleaseAll(3)
}

// TestWaitDieCycleThroughWaiter: O (ts 1) queues behind H (ts 3) on c,
// H queues behind Y (ts 5) on b, and then Y asks c shared. No holder of
// c conflicts with Y's shared request, but O's queued exclusive request
// does, and O is older: Y waiting would close the cycle H → Y → O → H,
// so Y must die and the other two finish.
func TestWaitDieCycleThroughWaiter(t *testing.T) {
	lm := NewLockManager(2 * time.Second)
	const o, h, y = 1, 3, 5
	b, c := key(2), key(3)
	if err := lm.Acquire(h, c, Shared); err != nil {
		t.Fatal(err)
	}
	if err := lm.Acquire(y, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	oDone, hDone := make(chan error, 1), make(chan error, 1)
	go func() { oDone <- lm.Acquire(o, c, Exclusive) }()
	waitQueued(t, lm, 1)
	go func() { hDone <- lm.Acquire(h, b, Exclusive) }()
	waitQueued(t, lm, 2)
	start := time.Now()
	if err := lm.Acquire(y, c, Shared); !errors.Is(err, ErrDie) {
		t.Fatalf("young request behind an older waiter: got %v, want ErrDie", err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("young request took %v to die", d)
	}
	lm.ReleaseAll(y)
	if err := <-hDone; err != nil {
		t.Fatalf("H after Y aborted: %v", err)
	}
	lm.ReleaseAll(h)
	if err := <-oDone; err != nil {
		t.Fatalf("O after H released: %v", err)
	}
	lm.ReleaseAll(o)
}

// TestMixedModesReleaseClean runs 8 goroutines over 6 overlapping keys
// in mixed modes, with upgrades, re-entrant requests and wait-die
// aborts. Exclusive holders must exclude each other, ReleaseAll must
// leave the transaction holding nothing, and once everyone is done the
// table must be empty: no holder or waiter left behind on any key.
func TestMixedModesReleaseClean(t *testing.T) {
	lm := NewLockManager(time.Second)
	var clock Clock
	var writers [6]atomic.Int32
	var violations, commits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 300; i++ {
				ts := clock.Next()
				var mine []int64
				ok := true
				for n := 1 + rng.Intn(3); n > 0; n-- {
					k := int64(rng.Intn(len(writers)))
					mode := Mode(rng.Intn(2))
					if err := lm.Acquire(ts, key(k), mode); err != nil {
						ok = false
						break
					}
					if mode == Exclusive && !slices.Contains(mine, k) {
						mine = append(mine, k)
					}
				}
				if ok {
					for _, k := range mine {
						if writers[k].Add(1) != 1 {
							violations.Add(1)
						}
					}
					for _, k := range mine {
						writers[k].Add(-1)
					}
					commits.Add(1)
				}
				lm.ReleaseAll(ts)
				if n := lm.HeldLocks(ts); n != 0 {
					t.Errorf("ts %d holds %d locks after ReleaseAll", ts, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if violations.Load() > 0 {
		t.Fatalf("%d mutual-exclusion violations", violations.Load())
	}
	if commits.Load() == 0 {
		t.Fatal("no transaction ever took its locks")
	}
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if len(lm.locks) != 0 || len(lm.byTxn) != 0 {
		t.Fatalf("%d entries and %d key sets left after every release", len(lm.locks), len(lm.byTxn))
	}
}

// TestUncontendedLockAllocs pins what an uncontended transaction's locks
// cost: 20 keys, one of them requested again and one upgraded, then
// ReleaseAll. Each key takes the entry an earlier key dropped, and the
// transaction the key list an earlier one released, so once the first
// run has filled the free lists a run allocates nothing; the re-entrant
// request and the upgrade add nothing either, because only a new holder
// appends its key.
func TestUncontendedLockAllocs(t *testing.T) {
	lm := NewLockManager(time.Second)
	var clock Clock
	run := func() {
		ts := clock.Next()
		for k := int64(0); k < 20; k++ {
			if err := lm.Acquire(ts, key(k), Shared); err != nil {
				t.Fatal(err)
			}
		}
		if err := lm.Acquire(ts, key(3), Shared); err != nil {
			t.Fatal(err)
		}
		if err := lm.Acquire(ts, key(7), Exclusive); err != nil {
			t.Fatal(err)
		}
		if n := lm.HeldLocks(ts); n != 20 {
			t.Fatalf("holds %d locks, want 20", n)
		}
		lm.ReleaseAll(ts)
	}
	run()
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Errorf("20 uncontended locks allocate %v times, want 0", allocs)
	}
}

// TestTimeoutWakesCompatibleWaiter: ts 30 holds a key shared, ts 20
// queues for it exclusive, and 100 ms later ts 10 queues shared behind
// ts 20. When ts 20 times out, ts 10 is compatible with the holder and
// must be granted then, 100 ms before its own wait would run out.
func TestTimeoutWakesCompatibleWaiter(t *testing.T) {
	const maxWait = 300 * time.Millisecond
	lm := NewLockManager(maxWait)
	if err := lm.Acquire(30, key(1), Shared); err != nil {
		t.Fatal(err)
	}
	writer, reader := make(chan error, 1), make(chan error, 1)
	go func() { writer <- lm.Acquire(20, key(1), Exclusive) }()
	waitQueued(t, lm, 1)
	time.Sleep(100 * time.Millisecond)
	go func() { reader <- lm.Acquire(10, key(1), Shared) }()
	if err := <-writer; !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer: got %v, want ErrTimeout", err)
	}
	if err := <-reader; err != nil {
		t.Fatalf("reader behind the timed-out writer: got %v, want the grant", err)
	}
	if n := lm.HeldLocks(10); n != 1 {
		t.Fatalf("reader holds %d locks, want 1", n)
	}
	lm.ReleaseAll(10)
	lm.ReleaseAll(30)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if len(lm.locks) != 0 {
		t.Fatalf("%d entries left after every release", len(lm.locks))
	}
}

// TestLockEntriesRecycled pushes 1 000 keys through Acquire and
// ReleaseAll, 200 a round. Each key is held shared by h and by u; u's
// upgrade queues and dies when u aborts, and o queues exclusive behind
// it and times out. Every entry a new key takes from the free list must
// start with no holder and no waiter — not even a queue array of the
// key it served before — HeldLocks must be exact, and after each round
// the table must be empty, its entries and key lists all free.
func TestLockEntriesRecycled(t *testing.T) {
	const rounds, perRound = 5, 200
	lm := NewLockManager(100 * time.Millisecond)
	fresh := func(ls *lockState) bool { return len(ls.holders) == 0 && ls.queue == nil }
	var waits int64
	for r := 0; r < rounds; r++ {
		// o and u are older than h, so both may wait for it.
		base := TS(r * 3 * perRound)
		h := base + 3*perRound
		o := func(i int) TS { return base + TS(i) + 1 }
		u := func(i int) TS { return base + perRound + TS(i) + 1 }
		k := func(i int) LockKey { return key(int64(r*perRound + i)) }
		for i := 0; i < perRound; i++ {
			lm.mu.Lock()
			if n := len(lm.freeStates); n > 0 && !fresh(lm.freeStates[n-1]) {
				t.Fatalf("round %d: free entry %+v is not empty", r, *lm.freeStates[n-1])
			}
			lm.mu.Unlock()
			if err := lm.Acquire(h, k(i), Shared); err != nil {
				t.Fatal(err)
			}
			lm.mu.Lock()
			ls := lm.locks[k(i)]
			if len(ls.holders) != 1 || ls.holders[0].ts != h || ls.queue != nil {
				t.Fatalf("round %d: new entry %+v, want holder %d alone", r, *ls, h)
			}
			lm.mu.Unlock()
			if err := lm.Acquire(u(i), k(i), Shared); err != nil {
				t.Fatal(err)
			}
		}
		upgrades, olds := make(chan error, perRound), make(chan error, perRound)
		for i := 0; i < perRound; i++ {
			go func() { upgrades <- lm.Acquire(u(i), k(i), Exclusive) }()
		}
		waits += perRound
		waitQueued(t, lm, waits)
		for i := 0; i < perRound; i++ {
			go func() { olds <- lm.Acquire(o(i), k(i), Exclusive) }()
		}
		waits += perRound
		waitQueued(t, lm, waits)
		for i := 0; i < perRound; i++ {
			lm.ReleaseAll(u(i))
			if n := lm.HeldLocks(u(i)); n != 0 {
				t.Fatalf("u holds %d locks after ReleaseAll", n)
			}
		}
		for i := 0; i < perRound; i++ {
			if err := <-upgrades; !errors.Is(err, ErrDie) {
				t.Fatalf("round %d: upgrade of an aborted transaction: got %v, want ErrDie", r, err)
			}
			if err := <-olds; !errors.Is(err, ErrTimeout) {
				t.Fatalf("round %d: waiter behind a holder: got %v, want ErrTimeout", r, err)
			}
		}
		for i := 0; i < perRound; i++ {
			if n := lm.HeldLocks(o(i)); n != 0 {
				t.Fatalf("timed-out o holds %d locks", n)
			}
		}
		if n := lm.HeldLocks(h); n != perRound {
			t.Fatalf("h holds %d locks, want %d", n, perRound)
		}
		lm.ReleaseAll(h)
		lm.mu.Lock()
		if len(lm.locks) != 0 || len(lm.byTxn) != 0 {
			t.Fatalf("round %d: %d entries and %d key lists left", r, len(lm.locks), len(lm.byTxn))
		}
		if len(lm.freeStates) != perRound {
			t.Fatalf("round %d: %d free entries, want %d", r, len(lm.freeStates), perRound)
		}
		for _, ls := range lm.freeStates {
			if !fresh(ls) {
				t.Fatalf("round %d: free entry %+v is not empty", r, *ls)
			}
		}
		lm.mu.Unlock()
	}
}

package main

import (
	"hash"
	"hash/fnv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"schism/internal/cluster"
	"schism/internal/driver"
)

// numClients is the closed loop's client count: one per core of the box
// the bounds were measured on. Every client waits for its reply before
// it sends again, so a slower system receives less load.
const numClients = 2

// sliceEvery is the width of the windows the measured section is cut
// into; per-transaction costs are medians over them.
const sliceEvery = 250 * time.Millisecond

// spanEvery keeps one transaction's spans in memory out of this many, so
// a traced run's span file stays a few MB. Every traced transaction
// still feeds the latency samples and statement histogram.
const spanEvery = 32

// client is one closed-loop caller. Its stream lives as long as the
// cluster it runs against: re-made TPC-C streams restart their history
// and order ids and collide with rows an earlier pass inserted.
type client struct {
	id     int
	stream driver.Stream
	sig    hash.Hash64
	n      int64 // transactions issued, all phases

	// Measured-phase samples, owned by the client's goroutine.
	lat    map[string][]int64 // ns by op class (Sig's first word)
	commit []int64            // ns from the last statement's return to commit, traced only
	buf    *spanBuf
}

// loadgen drives one coordinator from numClients persistent clients.
type loadgen struct {
	co      *cluster.Coordinator
	clients []*client
	stmtLat *driver.Sharded // traced only
	traced  bool
	// spanTag prefixes the span names and spanBase offsets the span ids
	// of a second pass in the same traced run (the R = 1 baseline), so its
	// spans stay apart from the measured section's.
	spanTag  string
	spanBase int64

	committed   atomic.Int64
	distributed atomic.Int64
	aborts      atomic.Int64
	failed      atomic.Int64
	stmtLocal   atomic.Int64
	stmtDist    atomic.Int64
}

func newLoadgen(co *cluster.Coordinator, mk driver.StreamMaker, seed int64, tr *tracer) *loadgen {
	l := &loadgen{co: co, traced: tr != nil}
	if tr != nil {
		l.stmtLat = driver.NewSharded(numClients)
	}
	for c := 0; c < numClients; c++ {
		cl := &client{id: c, stream: mk(c, seed), sig: fnv.New64a(), lat: map[string][]int64{}}
		if tr != nil {
			cl.buf = tr.buf()
		}
		l.clients = append(l.clients, cl)
	}
	return l
}

// phase runs every client until the deadline d, or for exactly ops
// transactions each when ops > 0. Measured phases record samples and
// return the section cut into slices; unmeasured ones (warm-up) only
// execute.
func (l *loadgen) phase(d time.Duration, ops int, measured bool) []slice {
	deadline := time.Now().Add(d)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; ; i++ {
				if ops > 0 {
					if i >= ops {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				l.one(c, measured)
			}
		}(c)
	}
	go func() { wg.Wait(); close(done) }()

	var slices []slice
	prev, prevCommitted := readUsage(), l.committed.Load()
	cut := func() {
		now, committed := readUsage(), l.committed.Load()
		slices = append(slices, now.since(prev, float64(committed-prevCommitted)))
		prev, prevCommitted = now, committed
	}
	if ops > 0 {
		<-done
		cut()
		return slices
	}
	tick := time.NewTicker(sliceEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			if time.Now().Before(deadline) {
				cut()
			}
		case <-done:
			// The tail after the last whole slice holds the clients'
			// last in-flight transactions only; it is not a slice.
			if len(slices) == 0 {
				cut()
			}
			return slices
		}
	}
}

// one issues the client's next transaction and waits for its outcome.
func (l *loadgen) one(c *client, measured bool) {
	op := c.stream.Next()
	c.sig.Write([]byte(op.Sig))
	c.sig.Write([]byte{'\n'})
	c.n++

	var res cluster.TxnResult
	var err error
	start := time.Now()
	var bodyEnd time.Time
	if l.traced && measured {
		res, bodyEnd, err = l.traceOne(c, op, start)
	} else {
		res, err = l.co.RunTxnStats(op.Run)
	}
	end := time.Now()
	if !measured {
		return
	}
	l.aborts.Add(int64(res.Aborts))
	if err != nil {
		l.failed.Add(1)
		return
	}
	l.committed.Add(1)
	if res.Distributed {
		l.distributed.Add(1)
	}
	l.stmtLocal.Add(int64(res.StmtLocal))
	l.stmtDist.Add(int64(res.StmtDistributed))
	class, _, _ := strings.Cut(op.Sig, " ")
	c.lat[class] = append(c.lat[class], int64(end.Sub(start)))
	if !bodyEnd.IsZero() {
		c.commit = append(c.commit, int64(end.Sub(bodyEnd)))
	}
}

// traceOne runs op with a statement observer: every statement feeds the
// statement histogram, and one transaction in spanEvery also leaves a
// span tree (txn → statements, commit). bodyEnd is when the last attempt's
// statements had all returned; what follows is commit.
func (l *loadgen) traceOne(c *client, op driver.Op, start time.Time) (res cluster.TxnResult, bodyEnd time.Time, err error) {
	hs := l.stmtLat.Shard(c.id)
	sampled := c.n%spanEvery == 0
	id := l.spanBase | int64(c.id)<<40 | c.n
	root := -1
	if sampled {
		root = c.buf.add(id, l.spanTag+"txn", -1, start, start)
	}
	observe := func(_ string, write bool, _ int, d time.Duration) {
		hs.Record(d)
		if sampled {
			name := "stmt.read"
			if write {
				name = "stmt.write"
			}
			now := time.Now()
			c.buf.add(id, l.spanTag+name, root, now.Add(-d), now)
		}
	}
	res, err = l.co.RunTxnStats(func(t *cluster.Txn) error {
		t.SetStmtObserver(observe)
		err := op.Run(t)
		bodyEnd = time.Now()
		return err
	})
	if sampled {
		c.buf.add(id, l.spanTag+"commit", root, bodyEnd, time.Now())
		c.buf.end(root)
	}
	return res, bodyEnd, err
}

// sigs returns each client's hash over its whole Sig stream.
func (l *loadgen) sigs() []uint64 {
	out := make([]uint64, len(l.clients))
	for i, c := range l.clients {
		out[i] = c.sig.Sum64()
	}
	return out
}

// latencies returns the measured latencies in ms: all together, and by
// op class.
func (l *loadgen) latencies() (all []float64, byClass map[string][]float64) {
	byClass = map[string][]float64{}
	for _, c := range l.clients {
		for class, ns := range c.lat {
			for _, v := range ns {
				ms := float64(v) / 1e6
				all = append(all, ms)
				byClass[class] = append(byClass[class], ms)
			}
		}
	}
	return all, byClass
}

func (l *loadgen) commitLatencies() []float64 {
	var out []float64
	for _, c := range l.clients {
		for _, v := range c.commit {
			out = append(out, float64(v)/1e6)
		}
	}
	return out
}

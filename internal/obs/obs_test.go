package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Hist("x")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(1)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("nil handles must read zero")
	}
	r.AddCollector(func(set func(string, int64)) { set("x", 1) })
	if r.Snapshot() != nil {
		t.Fatalf("nil registry snapshot must be nil")
	}
	r.Timeline().Add("crash", 1, 0, "")
	if r.Timeline().Events() != nil {
		t.Fatalf("nil timeline has no events")
	}
	r.ArmFirstCommit(-1)
	r.MarkCommit(nil)
}

func TestRegistryCountersGaugesHists(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("txn.committed")
	c.Inc()
	c.Add(2)
	if got := r.Counter("txn.committed").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	g := r.Gauge("window.depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Hist("2pc.prepare")
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if same := r.Hist("2pc.prepare"); same != h {
		t.Fatalf("named hist must be stable across lookups")
	}
}

func TestSnapshotIncludesCollectors(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(4)
	r.Hist("h").Record(time.Millisecond)
	r.AddCollector(func(set func(string, int64)) {
		set("wal.bytes", 1024)
		set("repl.lag.max", 2)
	})
	s := r.Snapshot()
	if s.Counters["a"] != 4 {
		t.Fatalf("counter missing from snapshot: %+v", s.Counters)
	}
	if s.Gauges["wal.bytes"] != 1024 || s.Gauges["repl.lag.max"] != 2 {
		t.Fatalf("collector gauges missing: %+v", s.Gauges)
	}
	hs, ok := s.Hists["h"]
	if !ok || hs.Count != 1 || hs.P50 < 900*time.Microsecond {
		t.Fatalf("hist summary wrong: %+v", hs)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["a"] != 4 {
		t.Fatalf("round-trip lost counters: %+v", back.Counters)
	}
}

func TestTimelineRingOrderAndDrop(t *testing.T) {
	tl := NewTimeline(16)
	for i := 0; i < 20; i++ {
		tl.Add("e", i, -1, "")
	}
	evs := tl.Events()
	if len(evs) != 16 {
		t.Fatalf("len = %d, want 16", len(evs))
	}
	if evs[0].Node != 4 || evs[15].Node != 19 {
		t.Fatalf("ring order wrong: first=%d last=%d", evs[0].Node, evs[15].Node)
	}
	if tl.Dropped() != 4 {
		t.Fatalf("dropped = %d, want 4", tl.Dropped())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At.Before(evs[i-1].At) {
			t.Fatalf("events out of chronological order at %d", i)
		}
	}
}

func TestTimelineConcurrent(t *testing.T) {
	tl := NewTimeline(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tl.Add("e", w, i, "")
			}
		}(w)
	}
	wg.Wait()
	if got := len(tl.Events()); got != 64 {
		t.Fatalf("retained %d events, want 64", got)
	}
	if tl.Dropped() != 8*100-64 {
		t.Fatalf("dropped = %d, want %d", tl.Dropped(), 8*100-64)
	}
}

func TestFirstCommitArm(t *testing.T) {
	r := NewRegistry()
	r.MarkCommit(nil) // disarmed: no event
	r.ArmFirstCommit(2)
	r.MarkCommit([]int{0, 1}) // wrong group: stays armed
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); r.MarkCommit([]int{2}) }()
	}
	wg.Wait()
	r.MarkCommit([]int{2})
	var n int
	for _, ev := range r.Timeline().Events() {
		if ev.Kind == "first-commit" {
			n++
		}
		if ev.Kind == "first-commit" && ev.Group != 2 {
			t.Fatalf("first-commit group = %d, want 2", ev.Group)
		}
	}
	if n != 1 {
		t.Fatalf("first-commit events = %d, want exactly 1", n)
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	r := NewRegistry() // becomes Current()
	r.Counter("served").Add(9)
	addr, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counters["served"] != 9 {
		t.Fatalf("/metrics missing counter: %+v", snap.Counters)
	}
	resp2, err := http.Get(fmt.Sprintf("http://%s/debug/vars", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("/debug/vars status %d", resp2.StatusCode)
	}
}

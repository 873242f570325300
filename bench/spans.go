package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the bench around the
// layer's public functions. Spans of one transaction, cycle or pipeline
// run share ID; Parent indexes the span that caused it within the same
// buffer (-1 for a root).
type span struct {
	ID     int64
	Name   string
	Parent int
	Start  int64 // ns since the tracer's epoch
	End    int64
}

// spanBuf holds the spans one goroutine records, so recording takes no
// lock. Spans stay in memory until the run ends.
type spanBuf struct {
	epoch time.Time
	spans []span
}

// tracer owns the buffers of a traced run. A nil *tracer means tracing
// is off.
type tracer struct {
	epoch time.Time
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new buffer for one goroutine. Call it before the
// goroutines start: the tracer itself is not synchronised.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{epoch: t.epoch}
	t.bufs = append(t.bufs, b)
	return b
}

// add records a finished span and returns its index for use as a parent.
func (b *spanBuf) add(id int64, name string, parent int, start, end time.Time) int {
	b.spans = append(b.spans, span{id, name, parent, int64(start.Sub(b.epoch)), int64(end.Sub(b.epoch))})
	return len(b.spans) - 1
}

// begin opens a span ending later via end.
func (b *spanBuf) begin(id int64, name string, parent int) int {
	now := time.Now()
	return b.add(id, name, parent, now, now)
}

func (b *spanBuf) end(idx int) { b.spans[idx].End = int64(time.Since(b.epoch)) }

// timed records fn as a child span of parent.
func (b *spanBuf) timed(id int64, name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	b.add(id, name, parent, start, end)
	return end.Sub(start)
}

// sequence lays phases a callee reported as durations (it keeps no start
// times) end to end from the start of its span, as that span's children.
// Their lengths are measured; their positions inside the parent are not.
func (b *spanBuf) sequence(parent int, names []string, durs []time.Duration) {
	p := b.spans[parent]
	at := p.Start
	for i, name := range names {
		b.spans = append(b.spans, span{p.ID, name, parent, at, at + int64(durs[i])})
		at += int64(durs[i])
	}
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanSummary aggregates one span name.
type spanSummary struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

type spanJSON struct {
	ID      int64  `json:"id"`
	Span    int    `json:"span"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// spanFile is what a traced run writes to <out>/<workload>.<seed>.spans.json.
type spanFile struct {
	Workload string                 `json:"workload"`
	Meta     runMeta                `json:"meta"`
	ByName   map[string]spanSummary `json:"by_name"`
	Spans    []spanJSON             `json:"spans"`
}

// collect merges the buffers into one numbering (span indexes become
// global, parents follow) and computes self times.
func (t *tracer) collect() ([]spanJSON, map[string]spanSummary) {
	var out []spanJSON
	byName := map[string]spanSummary{}
	for _, b := range t.bufs {
		base := len(out)
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			parent := -1
			if s.Parent >= 0 {
				parent = base + s.Parent
			}
			out = append(out, spanJSON{s.ID, base + i, parent, s.Name, s.Start, s.End, self[i]})
			sum := byName[s.Name]
			sum.Count++
			sum.TotalMS += float64(s.End-s.Start) / 1e6
			sum.SelfMS += float64(self[i]) / 1e6
			byName[s.Name] = sum
		}
	}
	return out, byName
}

func (t *tracer) write(path, workload string, meta runMeta) error {
	spans, byName := t.collect()
	data, err := json.Marshal(spanFile{workload, meta, byName, spans})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

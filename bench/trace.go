package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the program itself carries no stage clocks yet). Times are
// nanoseconds since the tracer started. Spans of one request share Request.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a request's root span
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the traced phase ends. A nil tracer
// records nothing: the same replay code runs with tracing off to measure
// what the tracing costs.
type tracer struct {
	mu    sync.Mutex // shard sub-queries end on their own goroutines
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// writeTo dumps the spans as one JSON array.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// childCover returns, per span id, how much of the span's interval its
// child spans cover: the length of the union of the children's intervals,
// clipped to the parent. Overlapping children (parallel shard sub-queries)
// count once; a span's self time is its duration minus this cover.
func childCover(spans []span) []time.Duration {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	cover := make([]time.Duration, len(spans))
	for id, cs := range children {
		if len(cs) == 0 {
			continue
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		p := spans[id]
		var total, curStart, curEnd int64
		open := false
		for _, c := range cs {
			s, e := max(c.Start, p.Start), min(c.End, p.End)
			if e <= s {
				continue
			}
			switch {
			case !open:
				curStart, curEnd, open = s, e, true
			case s <= curEnd:
				curEnd = max(curEnd, e)
			default:
				total += curEnd - curStart
				curStart, curEnd = s, e
			}
		}
		if open {
			total += curEnd - curStart
		}
		cover[id] = time.Duration(total)
	}
	return cover
}

// spanP50 is the median duration, in microseconds, of fn(span, cover) over
// the spans named name.
func spanP50(spans []span, cover []time.Duration, name string, fn func(s span, cover time.Duration) time.Duration) float64 {
	var vs []float64
	for _, s := range spans {
		if s.Name == name {
			vs = append(vs, us(fn(s, cover[s.ID])))
		}
	}
	return median(vs)
}

func spanDur(s span, _ time.Duration) time.Duration       { return s.dur() }
func spanCover(_ span, cover time.Duration) time.Duration { return cover }
func spanSelf(s span, cover time.Duration) time.Duration  { return s.dur() - cover }

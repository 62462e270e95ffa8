package main

import (
	"testing"
	"time"
)

func TestChildCoverAndSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		// Overlapping children of 0 cover [10,50) once, not twice.
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},
		// A disjoint child adds its whole length.
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 70},
		// Nested: grandchildren count against their parent only.
		{ID: 4, Parent: 1, Name: "a.1", Start: 15, End: 25},
		// A child running past its parent is clipped to it.
		{ID: 5, Parent: 3, Name: "c.1", Start: 65, End: 90},
		// A child wholly inside a sibling's interval adds nothing.
		{ID: 6, Parent: 0, Name: "d", Start: 35, End: 45},
	}
	cover := childCover(spans)
	want := []time.Duration{50, 10, 0, 5, 0, 0, 0}
	for id, w := range want {
		if cover[id] != w {
			t.Errorf("cover[%d] = %d, want %d", id, cover[id], w)
		}
	}
	if self := spanSelf(spans[0], cover[0]); self != 50 {
		t.Errorf("self time of the request = %d, want 50", self)
	}
	if self := spanSelf(spans[1], cover[1]); self != 20 {
		t.Errorf("self time of a = %d, want 20", self)
	}
}

func TestTracerRecordsAndNilTracerDoesNot(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", -1, 7)
	child := tr.begin("graphrnn.Run", root, 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Request != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].End < tr.spans[1].End || tr.spans[1].End < tr.spans[1].Start {
		t.Errorf("span times out of order: %+v", tr.spans)
	}

	var off *tracer
	if id := off.begin("request", -1, 0); id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	off.end(-1) // must not panic
}

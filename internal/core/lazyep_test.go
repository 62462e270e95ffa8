package core

import (
	"slices"
	"testing"

	"graphrnn/internal/points"
)

// TestEPMarksPooledState drives the pooled H' marks through what a query
// sequence does to them: lists filled in place in a block of the arena, a
// reset that forgets them without clearing, an epoch wrap that clears the
// stamps, and a graph of another size that re-makes the arrays.
func TestEPMarksPooledState(t *testing.T) {
	var ep epMarks
	ep.reset(4, 2)
	for _, m := range []struct {
		p    points.PointID
		d    float64
		want bool
	}{{7, 1.5, true}, {3, 0.5, true}, {9, 1.0, true}, {8, 2.0, false}, {9, 1.0, false}} {
		if got := ep.accept(1, m.p, m.d); got != m.want {
			t.Fatalf("accept(1, %d, %v) = %v, want %v", m.p, m.d, got, m.want)
		}
	}
	if got, want := ep.found(1), []PointDist{{P: 3, D: 0.5}, {P: 9, D: 1.0}}; !slices.Equal(got, want) {
		t.Fatalf("marks of node 1 = %v, want %v", got, want)
	}
	if ep.found(0) != nil || len(ep.arena) != 2 {
		t.Fatalf("unmarked node has marks %v, arena holds %d entries (want one block of 2)", ep.found(0), len(ep.arena))
	}
	ep.seeded[5] = true

	ep.reset(4, 3)
	if ep.found(1) != nil || len(ep.arena) != 0 || len(ep.seeded) != 0 {
		t.Fatalf("reset kept marks %v, %d arena entries, %d seeded points", ep.found(1), len(ep.arena), len(ep.seeded))
	}

	// A stamp left by the query of epoch 1 must not read as current when
	// the epoch comes round to 1 again.
	ep.nodes[3] = epNode{stamp: 1, off: 0, n: 1}
	ep.epoch = ^uint32(0)
	ep.reset(4, 3)
	if ep.epoch != 1 || ep.found(3) != nil {
		t.Fatalf("after the wrap: epoch %d, stale marks %v", ep.epoch, ep.found(3))
	}

	ep.reset(6, 1)
	if len(ep.nodes) != 6 || ep.epoch != 1 || ep.found(5) != nil {
		t.Fatalf("resized marks: %d nodes, epoch %d", len(ep.nodes), ep.epoch)
	}
	if !ep.accept(5, 1, 1) || ep.accept(5, 2, 2) || !ep.accept(5, 2, 0.5) {
		t.Fatal("a one-entry block keeps the nearest competitor only")
	}
}

package graphrnn_test

import (
	"context"
	"testing"

	"graphrnn"
)

// TestHotPathAllocs is the end-to-end half of the allocation gate (the
// layers have their own: internal/pq, internal/storage, internal/core). One
// warmed eager k=2 query on a disk-backed DB whose 32-page buffer is a
// fraction of the graph pushes and pops tens of thousands of heap entries
// and faults hundreds of pages; what it may still allocate is per-query
// bookkeeping — the exec context, plan, result and statistics, the
// verified/answer sets — not anything per heap entry, per page or per
// sub-expansion. Both residencies run the one walker, so both are gated.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := db.Close(); err != nil {
			t.Errorf("DB.Close: %v", err)
		}
	})
	ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
	if err != nil {
		t.Fatal(err)
	}
	qp := ps.Points()[0]
	qnode, _ := ps.NodeOf(qp)
	eps, err := db.PlaceRandomEdgePoints(2008, g.NumNodes()/100)
	if err != nil {
		t.Fatal(err)
	}
	ep := eps.Points()[0]
	eloc, _ := eps.LocationOf(ep)
	for _, tc := range []struct {
		name    string
		q       graphrnn.Query
		ceiling float64
	}{
		{"node", rnnQuery(ps.Excluding(qp), qnode, 2, graphrnn.Eager()), 32}, // measured: 11
		// measured: 15 (4 603 while every sub-expansion built its own heap,
		// adjacency and point buffers and a map of consumed arrivals)
		{"edge", edgeRNNQuery(eps.Excluding(ep), eloc, 2, graphrnn.Eager()), 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res *graphrnn.Result
			run := func() {
				if res, err = db.Run(context.Background(), tc.q); err != nil {
					t.Fatal(err)
				}
			}
			run()
			const runs = 5
			before := db.IOStats().Reads
			allocs := testing.AllocsPerRun(runs, run)
			faults := (db.IOStats().Reads - before) / (runs + 1) // AllocsPerRun warms up once
			t.Logf("eager k=2: %v allocs/query for %d heap pushes and %d page faults", allocs, res.Stats.HeapPushes, faults)
			if res.Stats.HeapPushes < 1000 || faults < 10 {
				t.Fatalf("test setup: query too small to gate anything (%d pushes, %d faults)", res.Stats.HeapPushes, faults)
			}
			if allocs > tc.ceiling {
				t.Fatalf("one warmed eager query allocated %v times, ceiling %v", allocs, tc.ceiling)
			}
		})
	}
}

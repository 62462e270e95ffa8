package graphrnn_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"graphrnn"
)

// TestHotPathAllocs is the end-to-end half of the allocation gate (the
// layers have their own: internal/pq, internal/storage, internal/core). One
// warmed k=2 query on a disk-backed DB whose 32-page buffer is a
// fraction of the graph pushes and pops tens of thousands of queue entries
// and faults hundreds of pages; what it may still allocate is per-query
// bookkeeping — the exec context, plan, result and statistics, the
// verified/answer sets — not anything per queue entry, per page or per
// sub-expansion. Both residencies run the one walker, so both are gated;
// so are lazy-EP, whose H' marks are pooled, lazy, eager-M over K-NN lists
// and a hub-label query over in-memory labels.
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
	mat, err := db.MaterializeNodePoints(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mat.Close() })
	hub, err := db.BuildHubLabelIndex(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hub.Close() })
	for _, tc := range []struct {
		name    string
		q       graphrnn.Query
		ceiling float64
	}{
		// measured: 11–19 over ten runs, as for the next rows; the upper end
		// is a run in which a collection emptied the scratch pool, and a
		// fresh walk grows each radix bucket it fills from one entry
		{"node", rnnQuery(ps.Excluding(qp), qnode, 2, graphrnn.Eager()), 32},
		// measured: 15–18 (4 603 while every sub-expansion built its own
		// heap, adjacency and point buffers and a map of consumed arrivals)
		{"edge", edgeRNNQuery(eps.Excluding(ep), eloc, 2, graphrnn.Eager()), 40},
		// measured: 6 (thousands while H' kept its marks in a per-query map of
		// per-node slices; they live in a pooled arena now)
		{"lazy-ep", rnnQuery(ps.Excluding(qp), qnode, 2, graphrnn.LazyEP()), 20},
		// measured: 15–24 (83 while Fig 6's hash table was a per-query map
		// of heap handles; it is the generator marks of the pooled walk now,
		// and the verified set is what stays per query)
		{"lazy", rnnQuery(ps.Excluding(qp), qnode, 2, graphrnn.Lazy()), 40},
		// measured: 16 (1 576 heap pushes, 120 page faults; the K-NN lists
		// spare the range-NN probes)
		{"eager-m", rnnQuery(ps.Excluding(qp), qnode, 2, graphrnn.EagerM(mat)), 40},
		// measured: 4 (125 label entries, no heap, no page)
		{"hub-label", rnnQuery(ps.Excluding(qp), qnode, 2, graphrnn.HubLabel(hub)), 12},
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
			before := tenantIO(db, "graph").Reads
			allocs := testing.AllocsPerRun(runs, run)
			faults := (tenantIO(db, "graph").Reads - before) / (runs + 1) // AllocsPerRun warms up once
			t.Logf("k=2: %v allocs/query for %d heap pushes, %d page faults and %d label entries",
				allocs, res.Stats.HeapPushes, faults, res.Stats.LabelEntries)
			// A hub-label query expands nothing and reads no page: the label
			// entries it folds are its work.
			if res.Stats.LabelEntries == 0 && (res.Stats.HeapPushes < 1000 || faults < 10) {
				t.Fatalf("test setup: query too small to gate anything (%d pushes, %d faults)", res.Stats.HeapPushes, faults)
			}
			if allocs > tc.ceiling {
				t.Fatalf("one warmed query allocated %v times, ceiling %v", allocs, tc.ceiling)
			}
		})
	}
}

// TestLazyEPMarksBoundedBySites: a node's block of H' marks holds min(k,
// visible sites) entries, never k. k = 10 000 over the 40 points of a 4K
// road network answers as brute force does (every point is a member) and
// allocates what the k = 40 run allocates, not the 160 KB per marked node a
// k-sized block would reserve. (With k at or above the number of points
// every site marks every node; on the 193-point 20K set that is two 11 s
// runs of 344 MB each — measured once, 343 874 KB against 343 250 KB — so
// the gate runs a fifth of it.)
func TestLazyEPMarksBoundedBySites(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(2006, 4000)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(k int) uint64 {
		db, err := graphrnn.Open(g, nil) // fresh scratch pools: the run pays for its arena
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
		if err != nil {
			t.Fatal(err)
		}
		qp := ps.Points()[0]
		qnode, _ := ps.NodeOf(qp)
		want, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, k, graphrnn.BruteForce()))
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, k, graphrnn.LazyEP()))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Points, want.Points) || len(got.Points) != ps.Len()-1 {
			t.Fatalf("k=%d: lazy-EP found %d members, brute %d of %d points", k, len(got.Points), len(want.Points), ps.Len()-1)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(40), allocated(10000)
	t.Logf("lazy-EP allocated %d KB at k=40, %d KB at k=10000", small>>10, large>>10)
	if large > 2*small {
		t.Fatalf("k=10000 allocated %d bytes, more than twice the %d of k=40: blocks are sized by k, not by the sites", large, small)
	}
}

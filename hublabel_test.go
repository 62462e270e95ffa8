package graphrnn_test

// Public-surface coverage for the hub-label substrate: routes and sites,
// incremental maintenance, and concurrent batch queries (run with -race),
// and answers held to the oracle on every generated topology, labels in
// memory and paged.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphrnn"
	"graphrnn/internal/hublabel"
	"graphrnn/internal/oracle"
)

type hubEnv struct {
	db  *graphrnn.DB
	ps  *graphrnn.NodePoints
	idx *graphrnn.HubLabelIndex
}

func newHubEnv(t *testing.T, g *graphrnn.Graph, seed int64, count, maxK int, opt *graphrnn.HubLabelOptions) *hubEnv {
	t.Helper()
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(seed, count)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, maxK, opt)
	if err != nil {
		t.Fatal(err)
	}
	return &hubEnv{db: db, ps: ps, idx: idx}
}

func hubTopologies(t *testing.T) map[string]*graphrnn.Graph {
	t.Helper()
	road, err := graphrnn.GenerateRoadNetwork(101, 600)
	if err != nil {
		t.Fatal(err)
	}
	brite, err := graphrnn.GenerateBrite(102, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graphrnn.GenerateGrid(103, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graphrnn.Graph{"road": road, "brite": brite, "grid": grid}
}

// TestHubLabelAgainstOracle holds the hub labels of road, BRITE and grid
// networks, in memory and paged, and the planner over them to the oracle at
// every node; paged queries must read label pages.
func TestHubLabelAgainstOracle(t *testing.T) {
	for name, g := range hubTopologies(t) {
		for _, b := range hubBackends {
			t.Run(name+"/"+b.name, func(t *testing.T) {
				e := newHubEnv(t, g, 104, g.NumNodes()/10, 4, b.opt)
				t.Cleanup(func() { e.idx.Close() })
				algos := map[string]graphrnn.Algorithm{"hub-label": graphrnn.HubLabel(e.idx), "auto": graphrnn.Auto()}
				graphrnn.CheckAgreement(t, graphrnn.Agreement{Points: e.ps, Algos: algos, Ks: oracle.Depths(4), Routes: [][]graphrnn.NodeID{e.db.RandomWalkRoute(105, 6)}})
				if b.opt != nil && tenantIO(e.db, "hublabel").Reads == 0 {
					t.Fatal("the paged index reported no label reads")
				}
			})
		}
	}
}

// TestHubLabelContinuousAndBichromatic covers the route and bichromatic
// kinds through the public dispatch.
func TestHubLabelContinuousAndBichromatic(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(111, 500)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(112, 50)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	algo := graphrnn.HubLabel(idx)
	for trial := 0; trial < 8; trial++ {
		route := db.RandomWalkRoute(int64(200+trial), 5)
		want, err := db.Run(context.Background(), routeQuery(ps, route, 2, graphrnn.BruteForce()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Run(context.Background(), routeQuery(ps, route, 2, algo))
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(got.Points, want.Points) {
			t.Fatalf("route %v: got %v, want %v", route, got.Points, want.Points)
		}
	}
	// Bichromatic: the index tracks the sites; k may exceed MaxK.
	cands, err := db.PlaceRandomNodePoints(113, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []graphrnn.NodeID{0, 17, 123, 321} {
		for _, k := range []int{1, 3} {
			want, err := db.Run(context.Background(), biQuery(cands, ps, q, k, graphrnn.BruteForce()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Run(context.Background(), biQuery(cands, ps, q, k, algo))
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got.Points, want.Points) {
				t.Fatalf("q=%d k=%d: got %v, want %v", q, k, got.Points, want.Points)
			}
		}
	}
}

// TestHubLabelMaintenance mutates the tracked set through the index and
// checks answers stay oracle-identical.
func TestHubLabelMaintenance(t *testing.T) {
	g, err := graphrnn.GenerateBrite(131, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(132, 30)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	algo := graphrnn.HubLabel(idx)
	check := func(step string) {
		t.Helper()
		for q := 0; q < g.NumNodes(); q += 53 {
			want, err := db.Run(context.Background(), rnnQuery(ps, graphrnn.NodeID(q), 2, graphrnn.BruteForce()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Run(context.Background(), rnnQuery(ps, graphrnn.NodeID(q), 2, algo))
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got.Points, want.Points) {
				t.Fatalf("%s q=%d: got %v, want %v", step, q, got.Points, want.Points)
			}
		}
	}
	check("initial")
	// Insert on free nodes, delete a few points, re-check each time.
	var inserted []graphrnn.PointID
	for n := 0; len(inserted) < 5 && n < g.NumNodes(); n++ {
		if _, taken := ps.PointAt(graphrnn.NodeID(n)); taken {
			continue
		}
		p, st, err := ps.Insert(context.Background(), graphrnn.NodeLocation(graphrnn.NodeID(n)), nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.LabelReads == 0 || st.LabelEntries == 0 {
			t.Fatalf("insert %d reports no hub-label repair work: %+v", p, st)
		}
		inserted = append(inserted, p)
		check(fmt.Sprintf("insert %d", p))
	}
	for _, p := range inserted[:3] {
		if err := ps.Delete(p); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("delete %d", p))
	}
}

// TestHubLabelInsertAfterTrailingDelete builds the index over a point set
// whose highest id has been deleted — the index's id space is then shorter
// than the set's — and checks that an insert still keeps the two in sync.
func TestHubLabelInsertAfterTrailingDelete(t *testing.T) {
	g, err := graphrnn.GenerateGrid(161, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := db.NewNodePoints()
	for n := 0; n < 10; n++ {
		if _, err := ps.Place(graphrnn.NodeID(n * 7)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Delete(9); err != nil { // highest id leaves a trailing gap
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ps.Place(99) // NodeSet assigns id 10, beyond the gap
	if err != nil {
		t.Fatal(err)
	}
	if p != 10 {
		t.Fatalf("inserted point id = %d, want 10", p)
	}
	for q := 0; q < g.NumNodes(); q += 13 {
		want, err := db.Run(context.Background(), rnnQuery(ps, graphrnn.NodeID(q), 2, graphrnn.BruteForce()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Run(context.Background(), rnnQuery(ps, graphrnn.NodeID(q), 2, graphrnn.HubLabel(idx)))
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(got.Points, want.Points) {
			t.Fatalf("q=%d: got %v, want %v", q, got.Points, want.Points)
		}
	}
}

// TestHubLabelBatchConcurrent fans batch queries through the hub-label
// algorithm from many goroutines (the -race target for the new substrate).
func TestHubLabelBatchConcurrent(t *testing.T) {
	g, err := graphrnn.GenerateGrid(141, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(142, 40)
	if err != nil {
		t.Fatal(err)
	}
	// Paged labels with a tiny buffer keep the label buffer churning under
	// concurrent faults.
	idx, err := db.BuildHubLabelIndex(ps, 4, &graphrnn.HubLabelOptions{DiskBacked: true, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	algo := graphrnn.HubLabel(idx)
	var queries []graphrnn.Query
	var want [][]graphrnn.PointID
	for _, qp := range ps.Points() {
		qnode, _ := ps.NodeOf(qp)
		res, err := db.Run(context.Background(), rnnQuery(ps, qnode, 2, graphrnn.BruteForce()))
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, rnnQuery(ps, qnode, 2, algo))
		want = append(want, res.Points)
	}
	for _, par := range []int{1, 4, 16} {
		results, _ := batch(db, queries, &graphrnn.BatchOptions{Parallelism: par})
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("parallelism %d query %d: %v", par, i, r.Err)
			}
			if !samePoints(r.Result.Points, want[i]) {
				t.Fatalf("parallelism %d query %d: got %v, want %v", par, i, r.Result.Points, want[i])
			}
		}
	}
	// Raw goroutine fan-out over single queries, mixing hidden-point views.
	var wg sync.WaitGroup
	errc := make(chan error, len(ps.Points()))
	for _, qp := range ps.Points() {
		wg.Add(1)
		go func(qp graphrnn.PointID) {
			defer wg.Done()
			qnode, _ := ps.NodeOf(qp)
			res, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, 4, algo))
			if err != nil {
				errc <- err
				return
			}
			wantRes, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, 4, graphrnn.BruteForce()))
			if err != nil {
				errc <- err
				return
			}
			if !samePoints(res.Points, wantRes.Points) {
				errc <- fmt.Errorf("q=%d: got %v, want %v", qp, res.Points, wantRes.Points)
			}
		}(qp)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestHubLabelErrors covers the public validation paths.
func TestHubLabelErrors(t *testing.T) {
	g, err := graphrnn.GenerateGrid(151, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(152, 10)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(context.Background(), rnnQuery(ps, 0, 1, graphrnn.HubLabel(nil))); err == nil {
		t.Fatal("nil index accepted")
	}
	if _, err := db.Run(context.Background(), rnnQuery(ps, 0, 3, graphrnn.HubLabel(idx))); err == nil {
		t.Fatal("k beyond MaxK accepted")
	}
	// A view over a different point set must be rejected — both when the
	// sizes differ and when a same-size set merely places points elsewhere.
	other, err := db.PlaceRandomNodePoints(153, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(context.Background(), rnnQuery(other, 0, 1, graphrnn.HubLabel(idx))); err == nil {
		t.Fatal("foreign point set accepted")
	}
	sameSize, err := db.PlaceRandomNodePoints(155, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(context.Background(), rnnQuery(sameSize, 0, 1, graphrnn.HubLabel(idx))); err == nil {
		t.Fatal("same-size foreign point set accepted")
	}
	// Edge-resident queries are not supported by this substrate.
	eps, err := db.PlaceRandomEdgePoints(154, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Run(context.Background(), edgeRNNQuery(eps, graphrnn.NodeLocation(0), 1, graphrnn.HubLabel(idx))); err == nil {
		t.Fatal("edge-resident query accepted")
	}
}

// TestHubLabelParallelPaged builds the index through the public API with
// every core and paged labels, and checks the result is indistinguishable
// from the default build: same label entries, same RNN answers — while the
// build stats report the parallel batched schedule and, paged or in memory,
// the same label bytes: the packed entries plus offsets, 8 bytes an entry on
// all three graphs, a 2-byte hub id (fewer than 65 537 nodes) and a 6-byte
// count of the quantum (every label distance is below 2^48 of it).
func TestHubLabelParallelPaged(t *testing.T) {
	for name, g := range hubTopologies(t) {
		t.Run(name, func(t *testing.T) {
			base := newHubEnv(t, g, 104, g.NumNodes()/10, 4, nil)
			opt := &graphrnn.HubLabelOptions{DiskBacked: true, Build: graphrnn.BuildOptions{Workers: -1}}
			e := newHubEnv(t, g, 104, g.NumNodes()/10, 4, opt)

			bst := e.idx.BuildStats()
			if bst.Workers < 1 || bst.Landmarks != g.NumNodes() || bst.Visits == 0 || bst.WallSeconds <= 0 {
				t.Fatalf("implausible build stats: %+v", bst)
			}
			if bst.Workers > 1 && bst.Batches == 0 {
				t.Fatalf("parallel build reports no batches: %+v", bst)
			}
			const entryBytes = 2 + 6
			inMemory := int64(entryBytes*base.idx.LabelEntries() + 4*(g.NumNodes()+1))
			if bst.LabelBytes != inMemory || base.idx.BuildStats().LabelBytes != inMemory {
				t.Fatalf("label bytes: paged %d, in memory %d (want %d)", bst.LabelBytes, base.idx.BuildStats().LabelBytes, inMemory)
			}
			if e.idx.LabelEntries() != base.idx.LabelEntries() {
				t.Fatalf("label entries diverge: %d vs %d (sequential)", e.idx.LabelEntries(), base.idx.LabelEntries())
			}

			algo := graphrnn.HubLabel(e.idx)
			ref := graphrnn.HubLabel(base.idx)
			for _, qp := range e.ps.Points()[:12] {
				qnode, _ := e.ps.NodeOf(qp)
				view := e.ps.Excluding(qp)
				for _, k := range []int{1, 2, 4} {
					want, err := base.db.Run(context.Background(), rnnQuery(base.ps.Excluding(qp), qnode, k, ref))
					if err != nil {
						t.Fatal(err)
					}
					got, err := e.db.Run(context.Background(), rnnQuery(view, qnode, k, algo))
					if err != nil {
						t.Fatal(err)
					}
					if !samePoints(got.Points, want.Points) {
						t.Fatalf("q=%d k=%d: got %v, want %v", qp, k, got.Points, want.Points)
					}
				}
			}
		})
	}
}

// liveHeap is the Go heap after two full collections.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestHubLabelPagedDropsLabeling: a paged index serves the label pages alone
// — the raw labeling it was paged from is not kept — so past its page
// payload a paged build grows what the process holds by less than an
// in-memory one does past its labels, plus half those labels (a labeling
// still pinned beside its pages adds all of them), and the paged index
// answers every query as the in-memory one does. What the process holds is
// the live Go heap plus the label mappings: an in-memory labeling keeps its
// packed entries outside the heap, its page file keeps the same bytes on it.
func TestHubLabelPagedDropsLabeling(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(141, 5000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(142, 50)
	if err != nil {
		t.Fatal(err)
	}
	// held returns the live heap and the mapped label bytes once at most
	// limit bytes are mapped: a collected labeling is unmapped by a cleanup
	// on its own goroutine, so held polls for it, up to a deadline.
	held := func(limit int64) (heap, mapped int64) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			heap = liveHeap()
			_, mapped = hublabel.MappedLabels()
			if mapped <= limit || time.Now().After(deadline) {
				return heap, mapped
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	_, base := hublabel.MappedLabels()
	growth, labels := map[bool]int64{}, map[bool]int64{}
	want := map[int][]graphrnn.PointID{} // the in-memory index's answers
	for _, paged := range []bool{false, true} {
		heap0, mapped0 := held(base)
		idx, err := db.BuildHubLabelIndex(ps, 2, &graphrnn.HubLabelOptions{DiskBacked: paged})
		if err != nil {
			t.Fatal(err)
		}
		keep := base // a paged index maps nothing, an in-memory one its labels
		if !paged {
			keep += idx.BuildStats().LabelBytes
		}
		heap1, mapped1 := held(keep)
		growth[paged] = heap1 - heap0 + mapped1 - mapped0
		labels[paged] = idx.BuildStats().LabelBytes
		for q := 0; q < g.NumNodes(); q += 97 {
			res, err := db.Run(context.Background(), rnnQuery(ps, graphrnn.NodeID(q), 2, graphrnn.HubLabel(idx)))
			if err != nil {
				t.Fatal(err)
			}
			if !paged {
				want[q] = res.Points
			} else if !samePoints(res.Points, want[q]) {
				t.Fatalf("q=%d: paged %v, in memory %v", q, res.Points, want[q])
			}
		}
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if 2*(growth[true]-labels[true]) >= 2*(growth[false]-labels[false])+labels[false] {
		t.Fatalf("paged build holds %d bytes of heap and mappings for %d of pages, in-memory build %d for %d of labels: the raw labeling is still pinned",
			growth[true], labels[true], growth[false], labels[false])
	}
	t.Logf("heap and mapping growth: in memory %d KiB, paged %d KiB", growth[false]>>10, growth[true]>>10)
}

// TestHubLabelRepairVsRebuild drives the substrate-crossing maintenance
// path: the point set mutates with a materialization and a hub-label index
// registered, the hub index repairs in place behind the K-NN list
// repair, and afterwards it must answer exactly like an index rebuilt from
// scratch.
func TestHubLabelRepairVsRebuild(t *testing.T) {
	g, err := graphrnn.GenerateGrid(131, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(132, 40)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Insert points on free nodes and repair; delete some (old and new)
	// and repair the other direction.
	var inserted []graphrnn.PointID
	for n := 0; n < g.NumNodes() && len(inserted) < 6; n++ {
		if _, taken := ps.PointAt(graphrnn.NodeID(n)); taken {
			continue
		}
		p, st, err := ps.Insert(context.Background(), graphrnn.NodeLocation(graphrnn.NodeID(n)), nil)
		if err != nil {
			t.Fatal(err)
		}
		// One operation, both substrates: the stats are their sum.
		if st.MatReads == 0 || st.LabelReads == 0 {
			t.Fatalf("insert %d did not repair both substrates: %+v", p, st)
		}
		inserted = append(inserted, p)
		n += 11
	}
	victims := []graphrnn.PointID{inserted[0], inserted[3], ps.Points()[0]}
	for _, p := range victims {
		if err := ps.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	if mat.RepairState() != graphrnn.RepairClean {
		t.Fatalf("RepairState = %v", mat.RepairState())
	}

	// Misuse is rejected before anything changes: a second point on an
	// occupied node, a point that does not exist.
	occupied, _ := ps.NodeOf(inserted[1])
	if _, err := ps.Place(occupied); err == nil {
		t.Fatal("Place on an occupied node succeeded")
	}
	if err := ps.Delete(inserted[0]); err == nil {
		t.Fatal("Delete of a deleted point succeeded")
	}

	fresh, err := db.BuildHubLabelIndex(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	repaired := graphrnn.HubLabel(idx)
	rebuilt := graphrnn.HubLabel(fresh)
	for _, qp := range ps.Points()[:12] {
		qnode, _ := ps.NodeOf(qp)
		for _, k := range []int{1, 2, 4} {
			want, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, k, rebuilt))
			if err != nil {
				t.Fatal(err)
			}
			got, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, k, repaired))
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got.Points, want.Points) {
				t.Fatalf("q=%d k=%d: repaired %v, rebuilt %v", qp, k, got.Points, want.Points)
			}
			oracle, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, k, graphrnn.BruteForce()))
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got.Points, oracle.Points) {
				t.Fatalf("q=%d k=%d: repaired %v, brute %v", qp, k, got.Points, oracle.Points)
			}
		}
	}
}

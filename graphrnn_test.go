package graphrnn_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"graphrnn"
	"graphrnn/internal/oracle"
)

func buildLineGraph(t *testing.T, n int) *graphrnn.Graph {
	t.Helper()
	gb := graphrnn.NewGraphBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := gb.AddEdge(graphrnn.NodeID(i), graphrnn.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// tenantIO returns the page traffic of db's pool tenant name ("graph",
// "mat", "hublabel", "edgepoints"): the first row of that name, zero when
// none is attached.
func tenantIO(db *graphrnn.DB, name string) graphrnn.IOStats {
	for _, t := range db.PoolStats().Tenants {
		if t.Name == name {
			return t.IOStats
		}
	}
	return graphrnn.IOStats{}
}

func TestPublicAPIQuickstart(t *testing.T) {
	g := buildLineGraph(t, 5)
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := db.NewNodePoints()
	p0, _ := ps.Place(0)
	p4, _ := ps.Place(4)
	// Query at node 1: p0 (distance 1, its NN is p4 at 4) is an RNN;
	// p4 (distance 3 vs its NN p0 at 4) also qualifies.
	for _, algo := range []graphrnn.Algorithm{
		graphrnn.Eager(), graphrnn.Lazy(), graphrnn.LazyEP(), graphrnn.BruteForce(),
	} {
		res, err := db.Run(context.Background(), rnnQuery(ps, 1, 1, algo))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(res.Points) != 2 || res.Points[0] != p0 || res.Points[1] != p4 {
			t.Fatalf("%v: RNN = %v, want [%d %d]", algo, res.Points, p0, p4)
		}
	}
}

// TestPublicAPIAllAlgorithmsAgree: over a disk-backed grid every substrate
// answers like the oracle at every node, and the expansions read graph
// pages.
func TestPublicAPIAllAlgorithmsAgree(t *testing.T) {
	g, err := graphrnn.GenerateGrid(103, 144, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(104, g.NumNodes()/10)
	if err != nil {
		t.Fatal(err)
	}
	graphrnn.CheckAgreement(t, graphrnn.Agreement{Points: ps, Algos: nodeSubstrates(t, db, ps, 4, nil), Ks: oracle.Depths(4), Routes: [][]graphrnn.NodeID{db.RandomWalkRoute(105, 6)}})
	if tenantIO(db, "graph").Reads == 0 {
		t.Fatal("the disk-backed graph recorded no page reads")
	}
}

func TestPublicAPIEdgeQueries(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(13, 900)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomEdgePoints(14, 50)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeEdgePoints(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	qp := ps.Points()[0]
	qloc, _ := ps.LocationOf(qp)
	view := ps.Excluding(qp)
	want, err := db.Run(context.Background(), edgeRNNQuery(view, qloc, 2, graphrnn.BruteForce()))
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []graphrnn.Algorithm{
		graphrnn.Eager(), graphrnn.Lazy(), graphrnn.LazyEP(), graphrnn.EagerM(mat),
	} {
		got, err := db.Run(context.Background(), edgeRNNQuery(view, qloc, 2, algo))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("%v = %v, brute = %v", algo, got.Points, want.Points)
		}
	}
	// Continuous over a route.
	route := db.RandomWalkRoute(15, 8)
	if _, err := db.Run(context.Background(), routeQuery(ps, route, 1, graphrnn.Eager())); err != nil {
		t.Fatal(err)
	}
	// Distance sanity.
	d, err := db.Distance(graphrnn.NodeLocation(0), graphrnn.NodeLocation(0))
	if err != nil || d != 0 {
		t.Fatalf("Distance(self) = %v, %v", d, err)
	}
}

func TestPublicAPIBichromatic(t *testing.T) {
	g := buildLineGraph(t, 7)
	db, _ := graphrnn.Open(g, nil)
	blocks := db.NewNodePoints()
	for _, n := range []graphrnn.NodeID{1, 2, 5} {
		if _, err := blocks.Place(n); err != nil {
			t.Fatal(err)
		}
	}
	rivals := db.NewNodePoints()
	if _, err := rivals.Place(6); err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(context.Background(), biQuery(blocks, rivals, 0, 1, graphrnn.Eager()))
	if err != nil {
		t.Fatal(err)
	}
	// Blocks at 1 and 2 are closer to node 0 than to the rival at 6; the
	// block at 5 is closer to the rival.
	if len(res.Points) != 2 {
		t.Fatalf("bRNN = %v, want 2 blocks", res.Points)
	}
}

func TestPublicAPIMaintenance(t *testing.T) {
	g, err := graphrnn.GenerateGrid(16, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := graphrnn.Open(g, nil)
	ps, err := db.PlaceRandomNodePoints(17, 10)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Insert at a free node.
	var free graphrnn.NodeID = -1
	for n := 0; n < g.NumNodes(); n++ {
		if _, taken := ps.PointAt(graphrnn.NodeID(n)); !taken {
			free = graphrnn.NodeID(n)
			break
		}
	}
	p, st, err := ps.Insert(context.Background(), graphrnn.NodeLocation(free), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NodesExpanded == 0 {
		t.Fatal("insert expanded no nodes")
	}
	// Queries after maintenance agree with brute force.
	q := ps.Points()[0]
	qnode, _ := ps.NodeOf(q)
	view := ps.Excluding(q)
	want, _ := db.Run(context.Background(), rnnQuery(view, qnode, 2, graphrnn.BruteForce()))
	got, err := db.Run(context.Background(), rnnQuery(view, qnode, 2, graphrnn.EagerM(mat)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("after insert: eagerM = %v, brute = %v", got.Points, want.Points)
	}
	// Delete it again.
	if _, err := ps.Remove(context.Background(), p, nil); err != nil {
		t.Fatal(err)
	}
	got, _ = db.Run(context.Background(), rnnQuery(view, qnode, 2, graphrnn.EagerM(mat)))
	want, _ = db.Run(context.Background(), rnnQuery(view, qnode, 2, graphrnn.BruteForce()))
	if len(got.Points) != len(want.Points) {
		t.Fatalf("after delete: eagerM = %v, brute = %v", got.Points, want.Points)
	}
	if mat.MaxK() != 2 {
		t.Fatalf("MaxK = %d", mat.MaxK())
	}
	if err := mat.Flush(); err != nil {
		t.Fatal(err)
	}
	if tenantIO(db, "mat").Writes == 0 {
		t.Fatal("maintenance flushed no writes")
	}
}

func TestPublicAPIKNN(t *testing.T) {
	g := buildLineGraph(t, 6) // 0-1-2-3-4-5, unit weights
	db, _ := graphrnn.Open(g, nil)
	ps := db.NewNodePoints()
	p0, _ := ps.Place(0)
	p5, _ := ps.Place(5)
	knn := func(ps graphrnn.PointSet, q graphrnn.Location, k int) ([]graphrnn.Neighbor, error) {
		res, err := db.Run(context.Background(), graphrnn.Query{Kind: graphrnn.KindKNN, Target: q, K: k, Points: ps})
		if err != nil {
			return nil, err
		}
		return res.Neighbors, nil
	}
	nn, err := knn(ps, graphrnn.NodeLocation(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 2 || nn[0].P != p0 || nn[0].Distance != 1 || nn[1].P != p5 || nn[1].Distance != 4 {
		t.Fatalf("KNN = %+v", nn)
	}
	// Edge-resident KNN.
	eps := db.NewEdgePoints()
	a, _ := eps.Place(2, 3, 0.25)
	enn, err := knn(eps, graphrnn.EdgeLocation(2, 3, 0.75), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(enn) != 1 || enn[0].P != a || enn[0].Distance != 0.5 {
		t.Fatalf("EdgeKNN = %+v", enn)
	}
	if _, err := knn(ps, graphrnn.NodeLocation(0), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestPublicAPILayouts(t *testing.T) {
	g, err := graphrnn.GenerateGrid(21, 2500, 4)
	if err != nil {
		t.Fatal(err)
	}
	open := func(layout graphrnn.Layout) (*graphrnn.DB, *graphrnn.NodePoints) {
		db, err := graphrnn.OpenWithLayout(g, &graphrnn.Options{DiskBacked: true, BufferPages: 4}, layout)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := db.PlaceRandomNodePoints(6, 25)
		if err != nil {
			t.Fatal(err)
		}
		return db, ps
	}
	bfs, psB := open(graphrnn.BFSLayout())
	qp := psB.Points()[0]
	qnode, _ := psB.NodeOf(qp)
	rb, err := bfs.Run(context.Background(), rnnQuery(psB.Excluding(qp), qnode, 1, graphrnn.Eager()))
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Points) == 0 {
		t.Fatal("test setup: the query has no members to compare")
	}
	for _, tc := range []struct {
		name   string
		layout graphrnn.Layout
		// moreReads: the layout faults at least as much as BFS on a tiny
		// buffer (random); otherwise at most as much (clustered).
		moreReads bool
	}{
		{"random", graphrnn.RandomLayout(5), true},
		{"clustered", graphrnn.ClusteredLayout(), false},
	} {
		db, ps := open(tc.layout)
		res, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, 1, graphrnn.Eager()))
		if err != nil {
			t.Fatal(err)
		}
		// Same answers regardless of layout...
		if !samePoints(res.Points, rb.Points) {
			t.Fatalf("%s layout answers %v, BFS %v", tc.name, res.Points, rb.Points)
		}
		// ...but not the same page traffic.
		r, b := tenantIO(db, "graph").Reads, tenantIO(bfs, "graph").Reads
		if tc.moreReads && r < b || !tc.moreReads && r > b {
			t.Fatalf("%s layout faulted %d pages, BFS %d", tc.name, r, b)
		}
	}
}

// TestQueryOnClosedDiskDB: a disk-backed DB answers a query after Close
// with an error, not a nil-pointer panic on the detached page tenant.
func TestQueryOnClosedDiskDB(t *testing.T) {
	g, err := graphrnn.GenerateGrid(21, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []graphrnn.Query{
		rnnQuery(ps, 7, 1, graphrnn.Eager()),
		rnnQuery(ps, 7, 1, graphrnn.Lazy()),
		{Kind: graphrnn.KindKNN, Target: graphrnn.NodeLocation(7), K: 2, Points: ps},
	} {
		if res, err := db.Run(context.Background(), q); err == nil || !strings.Contains(err.Error(), "closed") {
			t.Fatalf("%v query on a closed DB: %+v, %v; want an error saying the store is closed", q.Kind, res, err)
		}
	}
}

func TestPublicAPIErrors(t *testing.T) {
	g := buildLineGraph(t, 3)
	db, _ := graphrnn.Open(g, nil)
	ps := db.NewNodePoints()
	if _, err := db.Run(context.Background(), rnnQuery(ps, 0, 0, graphrnn.Eager())); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := db.Run(context.Background(), rnnQuery(ps, 9, 1, graphrnn.Lazy())); err == nil {
		t.Fatal("bad node accepted")
	}
	if _, err := db.Run(context.Background(), rnnQuery(ps, 0, 1, graphrnn.EagerM(nil))); err == nil {
		t.Fatal("EagerM(nil) accepted")
	}
	eps := db.NewEdgePoints()
	if _, err := eps.Place(0, 2, 0.5); err == nil {
		t.Fatal("point on missing edge accepted")
	}
	if _, err := eps.Place(0, 1, 5); err == nil {
		t.Fatal("offset beyond weight accepted")
	}
	// NaN fails both halves of a range check written as "< 0 || > w".
	nan := graphrnn.EdgeLocation(0, 1, math.NaN())
	if _, err := eps.Place(nan.U, nan.V, nan.Pos); err == nil {
		t.Fatal("NaN offset placed")
	}
	if d, err := db.Distance(graphrnn.NodeLocation(0), nan); err == nil {
		t.Fatalf("Distance from a NaN offset answered %v", d)
	}
	one := db.NewEdgePoints()
	if _, err := one.Place(1, 2, 0.5); err != nil {
		t.Fatal(err)
	}
	if res, err := db.Run(context.Background(), graphrnn.Query{Kind: graphrnn.KindKNN, Target: nan, K: 1, Points: one}); err == nil {
		t.Fatalf("KNN from a NaN offset answered %+v", res.Neighbors)
	}
	if _, err := graphrnn.Open(nil, nil); err == nil {
		t.Fatal("Open(nil) accepted")
	}
}

// TestHugeMaxK: a maxK far beyond any point set is legal for the hub-label
// index — its threshold lists never hold more than the other points — and
// answers like brute force, while the materialization refuses it with an
// error naming the page it cannot fit, before the record size is multiplied
// out. Neither builder panics; that neither leaves a tenant in the pool is
// TestTenantLifetimes' to check.
func TestHugeMaxK(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(31, 200)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(32, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxK := range []int{1 << 62, math.MaxInt} {
		idx, err := db.BuildHubLabelIndex(ps, maxK, nil)
		if err != nil {
			t.Fatalf("maxK %d: hub-label build: %v", maxK, err)
		}
		graphrnn.CheckAgreement(t, graphrnn.Agreement{Points: ps, Algos: map[string]graphrnn.Algorithm{"hub-label": graphrnn.HubLabel(idx)}, Ks: oracle.Depths(2)})
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.MaterializeNodePoints(ps, maxK, nil); err == nil || !strings.Contains(err.Error(), "page size 4096") {
			t.Errorf("maxK %d: materialization got %v, want an error naming the 4096-byte page", maxK, err)
		}
	}
}

// TestEdgeOffsetsOnQuantum: the DB rounds every edge offset it resolves to
// the graph's quantum — a placed point's, a query target's, a distance
// endpoint's — so the distances it sums from them are multiples of Q too.
func TestEdgeOffsetsOnQuantum(t *testing.T) {
	db := openEdges(t, 3, [3]float64{0, 1, 0.1}, [3]float64{1, 2, 0.2})
	q := db.Graph().Quantum()
	onGrid := func(x float64) bool { return x == math.Round(x/q)*q }
	ps := db.NewEdgePoints()
	p, err := ps.Place(0, 1, 0.031)
	if err != nil {
		t.Fatal(err)
	}
	if at, _ := ps.LocationOf(p); at.Pos != math.Round(0.031/q)*q {
		t.Errorf("offset 0.031 placed at %v, want %v", at.Pos, math.Round(0.031/q)*q)
	}
	d, err := db.Distance(graphrnn.EdgeLocation(0, 1, 0.031), graphrnn.NodeLocation(2))
	if err != nil {
		t.Fatal(err)
	}
	// With the offset as given, (0.1 − 0.031) + 0.2 is off the grid.
	w, _ := db.Graph().EdgeWeight(0, 1)
	w2, _ := db.Graph().EdgeWeight(1, 2)
	if !onGrid(d) || onGrid(w-0.031+w2) {
		t.Errorf("Distance = %v (on the grid: %v), from offset 0.031 as given %v", d, onGrid(d), w-0.031+w2)
	}
	res, err := db.Run(context.Background(), graphrnn.Query{Kind: graphrnn.KindKNN, Target: graphrnn.EdgeLocation(1, 2, 0.07), K: 1, Points: ps})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 1 || !onGrid(res.Neighbors[0].Distance) {
		t.Errorf("KNN from offset 0.07 answered %+v, want one neighbor at a multiple of %v", res.Neighbors, q)
	}
}

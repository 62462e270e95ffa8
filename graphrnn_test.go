package graphrnn_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphrnn"
	"graphrnn/internal/core"
	"graphrnn/internal/hublabel"
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

func TestPublicAPIAllAlgorithmsAgree(t *testing.T) {
	g, err := graphrnn.GenerateGrid(11, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(12, 40)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	algos := []graphrnn.Algorithm{
		graphrnn.Eager(), graphrnn.Lazy(), graphrnn.LazyEP(), graphrnn.EagerM(mat), graphrnn.BruteForce(),
	}
	queries := ps.Points()[:8]
	for _, k := range []int{1, 2, 4} {
		for _, qp := range queries {
			qnode, _ := ps.NodeOf(qp)
			view := ps.Excluding(qp)
			var want *graphrnn.Result
			for i, algo := range algos {
				got, err := db.Run(context.Background(), rnnQuery(view, qnode, k, algo))
				if err != nil {
					t.Fatalf("%v: %v", algo, err)
				}
				if i == 0 {
					want = got
					continue
				}
				if len(got.Points) != len(want.Points) {
					t.Fatalf("k=%d q=%d: %v = %v, eager = %v", k, qnode, algo, got.Points, want.Points)
				}
				for j := range got.Points {
					if got.Points[j] != want.Points[j] {
						t.Fatalf("k=%d q=%d: %v = %v, eager = %v", k, qnode, algo, got.Points, want.Points)
					}
				}
			}
		}
	}
	// Disk-backed queries must have produced I/O.
	if tenantIO(db, "graph").Reads == 0 {
		t.Fatal("disk-backed DB recorded no page reads")
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
	bfs, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	random, err := graphrnn.OpenWithLayout(g, &graphrnn.Options{DiskBacked: true, BufferPages: 4}, graphrnn.RandomLayout(5))
	if err != nil {
		t.Fatal(err)
	}
	psB, _ := bfs.PlaceRandomNodePoints(6, 25)
	psR, _ := random.PlaceRandomNodePoints(6, 25)
	qp := psB.Points()[0]
	qnode, _ := psB.NodeOf(qp)
	rb, err := bfs.Run(context.Background(), rnnQuery(psB.Excluding(qp), qnode, 1, graphrnn.Eager()))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := random.Run(context.Background(), rnnQuery(psR.Excluding(qp), qnode, 1, graphrnn.Eager()))
	if err != nil {
		t.Fatal(err)
	}
	// Same answers regardless of layout...
	if len(rb.Points) != len(rr.Points) {
		t.Fatalf("layouts disagree: %v vs %v", rb.Points, rr.Points)
	}
	// ...but the random layout faults at least as much on a tiny buffer.
	if r, b := tenantIO(random, "graph").Reads, tenantIO(bfs, "graph").Reads; r < b {
		t.Fatalf("random layout faulted less (%d) than BFS (%d)", r, b)
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
	if _, err := graphrnn.Open(nil, nil); err == nil {
		t.Fatal("Open(nil) accepted")
	}
	if math.IsNaN(0) {
		t.Fatal("unreachable")
	}
}

// TestPageSizeLimit: slot offsets and record lengths are 16-bit. Every file
// the public surface writes uses the default page, so the one page size a
// caller can still hand in is the one a file header declares: each reopen
// entry point accepts the file SaveTo wrote, and refuses a header declaring
// a page above 65 535 bytes with an error naming the limit — and one too
// small for a single record — before it reads a page. That the refusals
// leave no tenant behind is TestTenantLifetimes' to check.
func TestPageSizeLimit(t *testing.T) {
	g := buildLineGraph(t, 40)
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, edges := db.NewNodePoints(), db.NewEdgePoints()
	for i := 0; i < 6; i++ {
		if _, err := nodes.Place(graphrnn.NodeID(5 * i)); err != nil {
			t.Fatal(err)
		}
		if _, err := edges.Place(graphrnn.NodeID(5*i), graphrnn.NodeID(5*i+1), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	type persistable interface {
		SaveTo(string) error
		Close() error
	}
	saveAs := func(name string) func(persistable, error) string {
		return func(s persistable, err error) string {
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			path := filepath.Join(dir, name)
			if err := s.SaveTo(path); err != nil {
				t.Fatal(err)
			}
			return path
		}
	}
	nodeMat := saveAs("nodes.mat")(db.MaterializeNodePoints(nodes, 2, nil))
	edgeMat := saveAs("edges.mat")(db.MaterializeEdgePoints(edges, 2, nil))
	hub := saveAs("labels.hub")(db.BuildHubLabelIndex(nodes, 2, nil))
	closing := func(c interface{ Close() error }, err error) error {
		if err == nil {
			c.Close()
		}
		return err
	}
	for name, e := range map[string]struct {
		path, magic string
		pageSizeAt  int
		open        func(path string) error
	}{
		"OpenMaterialization/nodes": {nodeMat, core.MatFileHeader.Magic, core.MatFileHeader.PageSizeAt,
			func(p string) error { return closing(db.OpenMaterialization(p, nil)) }},
		"OpenMaterialization/edges": {edgeMat, core.MatFileHeader.Magic, core.MatFileHeader.PageSizeAt,
			func(p string) error { return closing(db.OpenMaterialization(p, nil)) }},
		"OpenHubLabelIndex": {hub, hublabel.FileHeader.Magic, hublabel.FileHeader.PageSizeAt,
			func(p string) error { return closing(db.OpenHubLabelIndex(nodes, 2, p, nil)) }},
	} {
		if err := e.open(e.path); err != nil {
			t.Errorf("%s: the file SaveTo wrote refused: %v", name, err)
		}
		raw, err := os.ReadFile(e.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(raw[:len(e.magic)]) != e.magic {
			t.Fatalf("%s: file starts %q, want magic %q", name, raw[:len(e.magic)], e.magic)
		}
		declaring := func(ps uint32) string {
			b := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint32(b[e.pageSizeAt:], ps)
			path := filepath.Join(dir, fmt.Sprintf("%s-%d", strings.ReplaceAll(name, "/", "-"), ps))
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return path
		}
		for _, ps := range []uint32{65536, 1 << 17} {
			if err := e.open(declaring(ps)); err == nil || !strings.Contains(err.Error(), "65535") {
				t.Errorf("%s: header declaring %d-byte pages: got %v, want an error naming the 65535-byte limit", name, ps, err)
			}
		}
		if err := e.open(declaring(8)); err == nil {
			t.Errorf("%s: a header declaring 8-byte pages accepted", name)
		}
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
		mustAgreeWithBrute(t, db, ps, 2, map[string]graphrnn.Algorithm{"hub-label": graphrnn.HubLabel(idx)})
		if err := idx.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.MaterializeNodePoints(ps, maxK, nil); err == nil || !strings.Contains(err.Error(), "page size 4096") {
			t.Errorf("maxK %d: materialization got %v, want an error naming the 4096-byte page", maxK, err)
		}
	}
}

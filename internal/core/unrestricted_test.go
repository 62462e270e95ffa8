package core

import (
	"math/rand"
	"sort"
	"testing"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/oracle"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

type edgeInfo struct {
	u, v graph.NodeID
	w    float64 // the weight as the API reports it
}

func graphEdges(g *graph.Graph) []edgeInfo {
	var out []edgeInfo
	g.ForEachEdge(func(u, v graph.NodeID, w graph.Dist) {
		out = append(out, edgeInfo{u, v, g.Float(w)})
	})
	return out
}

// randEdgePoints distributes count points uniformly over random edges.
func randEdgePoints(t testing.TB, rng *rand.Rand, g *graph.Graph, count int) *points.EdgeSet {
	t.Helper()
	edges := graphEdges(g)
	ps := points.NewEdgeSet()
	for i := 0; i < count; i++ {
		e := edges[rng.Intn(len(edges))]
		if _, err := ps.Place(e.u, e.v, g.Round(rng.Float64()*e.w)); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

func randULoc(rng *rand.Rand, g *graph.Graph, edges []edgeInfo) Loc {
	if rng.Intn(4) == 0 {
		return NodeLoc(graph.NodeID(rng.Intn(g.NumNodes())))
	}
	e := edges[rng.Intn(len(edges))]
	return Loc{U: e.u, V: e.v, Pos: g.Round(rng.Float64() * e.w)}
}

func TestULocDistanceFig14Semantics(t *testing.T) {
	// A point on an edge has two route bounds through the endpoints; the
	// network distance is their minimum (Fig 14: the processing of n3
	// bounds d(q,p3) by 10, n5 tightens it to the exact 8).
	//
	//   q at node 0; edge (1,2) of weight 10 with p at pos 4 from node 1;
	//   d(0,1)=7, d(0,2)=3  =>  d(q,p) = min(7+4, 3+6) = 9.
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 10); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSearcher(g)
	d, err := s.Distance(NodeLoc(0), Loc{U: 1, V: 2, Pos: g.Round(4)})
	if err != nil {
		t.Fatal(err)
	}
	if d != g.Round(9) {
		t.Fatalf("d(q,p) = %v, want 9 (min of 11 and 9)", d)
	}
	// Same-edge direct distance vs the long way around.
	d, err = s.Distance(Loc{U: 1, V: 2, Pos: g.Round(1)}, Loc{U: 1, V: 2, Pos: g.Round(9)})
	if err != nil {
		t.Fatal(err)
	}
	if d != g.Round(8) {
		t.Fatalf("same-edge distance = %v, want 8 (direct)", d)
	}
	// Direct segment longer than the route through the endpoints: points
	// at the far ends of a heavy edge.
	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 1, 100)
	b2.AddEdge(0, 2, 1)
	b2.AddEdge(1, 2, 1)
	g2, _ := b2.Build()
	s2 := NewSearcher(g2)
	d, err = s2.Distance(Loc{U: 0, V: 1, Pos: g2.Round(1)}, Loc{U: 0, V: 1, Pos: g2.Round(99)})
	if err != nil {
		t.Fatal(err)
	}
	if d != g2.Round(4) { // 1 back to node0, node0->2->1 = 2, then 1 into the edge
		t.Fatalf("heavy-edge distance = %v, want 4 (through the network)", d)
	}
}

func TestULocValidation(t *testing.T) {
	g, _, _ := paperGraph(t)
	s := NewSearcher(g)
	ps := points.NewEdgeSet()
	if _, err := runURNN(s, AlgoEager, ps, nil, Loc{U: 0, V: 99}, 1); err == nil {
		t.Fatal("out-of-range location accepted")
	}
	if _, err := runURNN(s, AlgoEager, ps, nil, Loc{U: 1, V: 0, Pos: g.Round(1)}, 1); err == nil {
		t.Fatal("non-canonical edge location accepted")
	}
	if _, err := runURNN(s, AlgoEager, ps, nil, Loc{U: 0, V: 1, Pos: g.Round(999)}, 1); err == nil {
		t.Fatal("offset beyond edge weight accepted")
	}
	if _, err := runURNN(s, AlgoEager, ps, nil, Loc{U: 0, V: 6, Pos: g.Round(1)}, 1); err == nil {
		t.Fatal("location on a missing edge accepted")
	}
	if _, err := runURNN(s, AlgoEager, ps, nil, NodeLoc(0), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// TestUnrestrictedAgreesWithBrute is the central unrestricted property
// test: eager, lazy, lazy-EP, eager-M and brute force against the oracle,
// with queries on nodes, inside edges, and at data point locations
// (excluded).
func TestUnrestrictedAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for range 12 {
		n := 10 + rng.Intn(40)
		g := randNet(t, rng, n, rng.Intn(2*n), 0.3)
		ps := randEdgePoints(t, rng, g, 1+rng.Intn(n/2+2))
		maxK := 1 + rng.Intn(3)
		mat, err := matBuild(NewSearcher(g), PointSet{Edge: ps}, maxK, newMemMatFile(), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustMatchOracle(t, oracleCase{g: g, ps: PointSet{Edge: ps}, mat: mat,
			algos: []Algo{AlgoEager, AlgoLazy, AlgoLazyEP, AlgoEagerM, AlgoBrute}, ks: oracle.Depths(maxK)})
	}
}

// TestUnrestrictedDensePoints puts many points on few edges so that
// same-edge interactions (direct distances, edge-crossing pruning)
// dominate.
func TestUnrestrictedDensePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for range 25 {
		n := 6 + rng.Intn(10)
		g := randNet(t, rng, n, rng.Intn(n), 0)
		edges := graphEdges(g)
		ps := points.NewEdgeSet()
		// Cluster points on up to 3 edges.
		for range 3 + rng.Intn(10) {
			e := edges[rng.Intn(min(3, len(edges)))]
			if _, err := ps.Place(e.u, e.v, g.Round(rng.Float64()*e.w)); err != nil {
				t.Fatal(err)
			}
		}
		mustMatchOracle(t, oracleCase{g: g, ps: PointSet{Edge: ps}, algos: []Algo{AlgoEager, AlgoLazy, AlgoLazyEP, AlgoBrute}, ks: oracle.Depths(3)})
	}
}

// TestUnrestrictedFarFromEndpoints reproduces the discovery hazard the
// walker's point-arrival scheme exists for (see loc.go): a member deep
// inside a long edge whose endpoints are crowded by other points must still
// be found.
func TestUnrestrictedFarFromEndpoints(t *testing.T) {
	// q at node 3 -- a(0) ===long edge=== b(1), appendage at b with a point
	// x that crowds b's range-NN; p sits mid-edge and is still a RNN.
	b := graph.NewBuilder(4)
	b.AddEdge(3, 0, 9)   // q - a
	b.AddEdge(0, 1, 100) // a ===== b, p at offset 10 from a
	b.AddEdge(1, 2, 85)  // b - x's node
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := points.NewEdgeSet()
	p, _ := ps.Place(0, 1, g.Round(10)) // d(p,q) = 19
	x, _ := ps.Place(1, 2, g.Round(85)) // x at node-2 end: d(x,b)=85 < d(p,b)=90
	_ = x                               // d(x,p)=175, d(x,q)=194: x's NN is p, not q
	s := NewSearcher(g)
	for name, run := range map[string]func() (*Result, error){
		"brute":   func() (*Result, error) { return runURNN(s, AlgoBrute, ps, nil, NodeLoc(3), 1) },
		"ueager":  func() (*Result, error) { return runURNN(s, AlgoEager, ps, nil, NodeLoc(3), 1) },
		"ulazy":   func() (*Result, error) { return runURNN(s, AlgoLazy, ps, nil, NodeLoc(3), 1) },
		"ulazyEP": func() (*Result, error) { return runURNN(s, AlgoLazyEP, ps, nil, NodeLoc(3), 1) },
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Points) != 1 || r.Points[0] != p {
			t.Fatalf("%s = %v, want [p] — mid-edge member missed", name, r.Points)
		}
	}
}

// TestUnrestrictedContinuousAgreesWithBrute: routes over edge points.
func TestUnrestrictedContinuousAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for range 12 {
		n := 10 + rng.Intn(30)
		g := randNet(t, rng, n, rng.Intn(2*n), 0.3)
		ps := randEdgePoints(t, rng, g, 1+rng.Intn(n/2+2))
		maxK := 1 + rng.Intn(2)
		mat, err := matBuild(NewSearcher(g), PointSet{Edge: ps}, maxK, newMemMatFile(), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		var routes [][]graph.NodeID
		for range 3 {
			routes = append(routes, gen.RandomWalkRoute(rng, g, 1+rng.Intn(6)))
		}
		mustMatchOracle(t, oracleCase{g: g, ps: PointSet{Edge: ps}, mat: mat,
			algos: []Algo{AlgoEager, AlgoLazy, AlgoLazyEP, AlgoEagerM, AlgoBrute}, ks: oracle.Depths(maxK), routes: routes})
	}
}

// TestUnrestrictedBichromaticAgreesWithBrute: edge-resident candidates and
// sites, eager-M reading lists over the sites.
func TestUnrestrictedBichromaticAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for range 12 {
		n := 10 + rng.Intn(30)
		g := randNet(t, rng, n, rng.Intn(2*n), 0.3)
		cands := randEdgePoints(t, rng, g, 1+rng.Intn(n/2+2))
		sites := randEdgePoints(t, rng, g, 1+rng.Intn(n/3+2))
		maxK := 1 + rng.Intn(2)
		mat, err := matBuild(NewSearcher(g), PointSet{Edge: sites}, maxK, newMemMatFile(), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustMatchOracle(t, oracleCase{g: g, ps: PointSet{Edge: cands}, sites: PointSet{Edge: sites}, mat: mat,
			algos: []Algo{AlgoEager, AlgoLazy, AlgoLazyEP, AlgoEagerM, AlgoBrute}, ks: oracle.Depths(maxK)})
	}
}

// TestUnrestrictedWithPagedPoints runs the property test against the
// disk-resident point file to confirm the paged EdgeView is semantically
// identical and I/O is accounted.
func TestUnrestrictedWithPagedPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for it := 0; it < 40; it++ {
		n := 10 + rng.Intn(30)
		g := randNet(t, rng, n, rng.Intn(2*n), 0.3)
		edges := graphEdges(g)
		s := NewSearcher(g)
		mem := randEdgePoints(t, rng, g, 1+rng.Intn(n/2+2))
		f := storage.NewMemFile(512)
		paged, err := points.NewPagedEdgeSetBuffer(mem, f, storage.NewBufferPool(8).Attach("", f, 0))
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(2)
		q := randULoc(rng, g, edges)
		want, err := runURNN(s, AlgoEager, mem, nil, q, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runURNN(s, AlgoEager, paged, nil, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(want, got) {
			t.Fatalf("iter %d paged=%s mem=%s", it, describe(got), describe(want))
		}
	}
}

func TestUMatBuildMatchesEndpointMerge(t *testing.T) {
	// The materialized lists over edge points must equal a brute
	// computation via ULocDistance.
	rng := rand.New(rand.NewSource(75))
	for it := 0; it < 25; it++ {
		n := 8 + rng.Intn(20)
		g := randNet(t, rng, n, rng.Intn(n), 0.3)
		s := NewSearcher(g)
		ps := randEdgePoints(t, rng, g, 1+rng.Intn(8))
		maxK := 1 + rng.Intn(3)
		mat, err := matBuild(s, PointSet{Edge: ps}, maxK, newMemMatFile(), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		var lst []MatEntry
		for node := graph.NodeID(0); int(node) < n; node++ {
			var want []MatEntry
			for _, p := range ps.Points() {
				loc, _ := ps.Loc(p)
				d, err := s.Distance(NodeLoc(node), PointLoc(loc))
				if err != nil {
					t.Fatal(err)
				}
				if d != graph.Inf {
					want = append(want, MatEntry{P: p, D: d})
				}
			}
			sort.Slice(want, func(i, j int) bool {
				return entryLess(want[i].D, want[i].P, want[j].D, want[j].P)
			})
			if len(want) > maxK+1 {
				want = want[:maxK+1]
			}
			lst, err = mat.List(node, lst)
			if err != nil {
				t.Fatal(err)
			}
			if len(lst) != len(want) {
				t.Fatalf("node %d list = %v, want %v", node, lst, want)
			}
			for i := range lst {
				if lst[i] != want[i] {
					t.Fatalf("node %d list = %v, want %v", node, lst, want)
				}
			}
		}
	}
}

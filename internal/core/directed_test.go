package core

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/oracle"
	"graphrnn/internal/points"
)

// directedAlgos are the algorithms that serve a graph with one-way arcs.
var directedAlgos = []Algo{AlgoEager, AlgoLazyEP}

// randDigraph generates a random graph with one-way arcs. With cycle set a
// directed cycle guarantees strong connectivity, so every verification can
// reach the query; without, some points cannot.
func randDigraph(t testing.TB, rng *rand.Rand, n int, cycle bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	if cycle {
		for i := 0; i < n; i++ {
			if err := b.AddArc(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*5); err != nil {
				t.Fatal(err)
			}
		}
	}
	extra := rng.Intn(4 * n)
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := b.AddArc(graph.NodeID(u), graph.NodeID(v), 1+rng.Float64()*5); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDigraphBuilder(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.AddArc(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddArc(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddArc(1, 1, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := b.AddArc(0, 5, 1); err == nil {
		t.Fatal("out-of-range arc accepted")
	}
	if err := b.AddArc(0, 1, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() || g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("directed=%v |V|=%d arcs=%d", g.Directed(), g.NumNodes(), g.NumEdges())
	}
	if g.In().In() != graph.Access(g) {
		t.Fatal("the reverse of the reverse is not the graph")
	}
	out, err := g.Adjacency(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].To != 1 {
		t.Fatalf("out(0) = %v", out)
	}
	// Node 0 has no in-arcs; node 1 has one (from 0).
	in, err := g.In().Adjacency(0, nil)
	if err != nil || len(in) != 0 {
		t.Fatalf("in(0) = %v, %v", in, err)
	}
	in, err = g.In().Adjacency(1, nil)
	if err != nil || len(in) != 1 || in[0].To != 0 {
		t.Fatalf("in(1) = %v, %v", in, err)
	}
	if _, err := g.In().Adjacency(9, nil); err == nil {
		t.Fatal("out-of-range adjacency accepted")
	}
}

func TestDirectedOneWayStreetAsymmetry(t *testing.T) {
	// A one-way shortcut: p can reach q in 1 but the return path costs 10.
	// A rival point x sits 2 away from p (both directions). Under directed
	// semantics q IS p's nearest reachable object (1 < 2); under
	// undirected-style reasoning from the query side (d(q→p) = 10) one
	// might wrongly reject p.
	b := graph.NewBuilder(4)
	// p=node0, q=node1, x=node2, helper=node3.
	must := func(u, v graph.NodeID, w float64) {
		if err := b.AddArc(u, v, w); err != nil {
			t.Fatal(err)
		}
	}
	must(0, 1, 1) // p -> q (one way, cheap)
	must(1, 3, 5) // q -> helper
	must(3, 0, 5) // helper -> p (so q reaches p at cost 10)
	must(0, 2, 2) // p -> x
	must(2, 0, 2) // x -> p
	must(2, 1, 9) // x -> q (expensive: q is not x's NN; x's NN is p)
	must(1, 2, 9)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := points.NewNodeSet(4)
	p, _ := ps.Place(0)
	x, _ := ps.Place(2)
	s := NewSearcher(g)
	rb, err := runRNN(s, AlgoBrute, ps, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range directedAlgos {
		r, err := runRNN(s, a, ps, nil, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Points) != 1 || r.Points[0] != p {
			t.Fatalf("algo %d: directed RNN(q) = %v, want [p=%d] (x=%d has p closer)", a, r.Points, p, x)
		}
		if !samePoints(r, rb) {
			t.Fatalf("algo %d: got %s brute=%s", a, describe(r), describe(rb))
		}
	}
}

// TestDirectedEagerAgreesWithBrute is the directed property test: every
// kind under eager, lazy-EP and brute force against the oracle over the
// out-arcs, on graphs strongly connected or not, with k up to |P|.
func TestDirectedEagerAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	algos := append(slices.Clone(directedAlgos), AlgoBrute)
	for range 15 {
		n := 8 + rng.Intn(40)
		g := randDigraph(t, rng, n, rng.Intn(3) > 0)
		ps := PointSet{Node: randPoints(t, rng, g, 1+rng.Intn(n/2))}
		sites := PointSet{Node: randPoints(t, rng, g, 1+rng.Intn(n/4))}
		k := 1 + rng.Intn(3)
		route := []graph.NodeID{graph.NodeID(rng.Intn(n))}
		for len(route) < 1+rng.Intn(4) {
			route = append(route, graph.NodeID(rng.Intn(n)))
		}
		mustMatchOracle(t, oracleCase{g: g, ps: ps, algos: algos, ks: oracle.Depths(k, ps.len()), routes: [][]graph.NodeID{route}})
		mustMatchOracle(t, oracleCase{g: g, ps: ps, sites: sites, algos: algos, ks: oracle.Depths(k)})
	}
}

// TestDirectedMatchesUndirectedOnSymmetricGraphs: when every arc has its
// reverse twin with the same weight the builder yields the undirected
// graph — no reverse view, and answers and work counters equal to the
// AddEdge twin's.
func TestDirectedMatchesUndirectedOnSymmetricGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for it := 0; it < 60; it++ {
		net := randTestNet(t, rng)
		db := graph.NewBuilder(net.g.NumNodes())
		net.g.ForEachEdge(func(u, v graph.NodeID, w graph.Dist) {
			if err := db.AddArc(u, v, net.g.Float(w)); err != nil {
				t.Fatal(err)
			}
			if err := db.AddArc(v, u, net.g.Float(w)); err != nil {
				t.Fatal(err)
			}
		})
		dg, err := db.Build()
		if err != nil {
			t.Fatal(err)
		}
		if dg.Directed() {
			t.Fatalf("iter %d: arcs with equal-weight twins built a directed graph", it)
		}
		k := 1 + rng.Intn(3)
		qnode := graph.NodeID(rng.Intn(net.g.NumNodes()))
		for _, a := range []Algo{AlgoEager, AlgoLazy, AlgoLazyEP} {
			want, err := runRNN(NewSearcher(net.g), a, net.ps, nil, qnode, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runRNN(NewSearcher(dg), a, net.ps, nil, qnode, k)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(want, got) || want.Stats != got.Stats {
				t.Fatalf("iter %d algo %d: arcs=%s %+v edges=%s %+v (q=%d k=%d)",
					it, a, describe(got), got.Stats, describe(want), want.Stats, qnode, k)
			}
		}
	}
}

// TestDirectedRejectsSymmetricOnlyPaths: what needs d(a,b) = d(b,a) answers
// ErrUndirectedOnly on a graph with one-way arcs.
func TestDirectedRejectsSymmetricOnlyPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := randDigraph(t, rng, 12, true)
	s := NewSearcher(g)
	ps := randPoints(t, rng, g, 4)
	es := points.NewEdgeSet(g.LogQuantum())
	node, edge := PointSet{Node: ps}, PointSet{Edge: es}
	inEdge := Loc{U: 0, V: 1, Pos: g.Round(0.5)}

	_, lazyErr := s.Run(Request{Algo: AlgoLazy, K: 1, Points: node, Target: NodeLoc(0)})
	_, edgeSetErr := s.Run(Request{K: 1, Points: edge, Target: NodeLoc(0)})
	_, edgeSitesErr := s.Run(Request{Kind: KindBichromatic, K: 1, Points: node, Sites: edge, Target: NodeLoc(0)})
	_, _, verifyErr := s.VerifyMember(Request{K: 1, Points: edge, Target: NodeLoc(0)}, 0)
	_, knnSetErr := s.KNN(edge, NodeLoc(0), 1)
	_, knnLocErr := s.KNN(node, inEdge, 1)
	_, distErr := s.Distance(NodeLoc(0), inEdge)
	_, matErr := matBuild(s, node, 2, newMemMatFile(), 8, nil)
	// Lists built over an undirected graph of the same size do not make
	// eager-M any more correct here.
	mat, err := matBuild(NewSearcher(randNet(t, rng, 12, 6, 0)), node, 2, newMemMatFile(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, eagerMErr := s.Run(Request{Algo: AlgoEagerM, K: 1, Points: node, Target: NodeLoc(0), Mat: mat})
	for name, err := range map[string]error{
		"lazy": lazyErr, "edge set": edgeSetErr, "edge sites": edgeSitesErr, "verify over an edge set": verifyErr,
		"knn over an edge set": knnSetErr, "knn from inside an edge": knnLocErr,
		"distance to inside an edge": distErr, "materialize": matErr, "eager-M": eagerMErr,
	} {
		if !errors.Is(err, ErrUndirectedOnly) {
			t.Errorf("%s: err = %v, want ErrUndirectedOnly", name, err)
		}
	}
	// Distance itself is direction-aware: forward arcs only.
	if d, err := s.Distance(NodeLoc(0), NodeLoc(1)); err != nil || d <= 0 {
		t.Fatalf("Distance(0,1) = %v, %v", d, err)
	}
}

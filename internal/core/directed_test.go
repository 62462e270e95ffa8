package core

import (
	"math/rand"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

func randDigraph(t testing.TB, rng *rand.Rand, n int) *graph.Digraph {
	t.Helper()
	b := graph.NewDigraphBuilder(n)
	// A directed cycle guarantees strong connectivity, so every
	// verification can reach the query.
	for i := 0; i < n; i++ {
		if err := b.AddArc(graph.NodeID(i), graph.NodeID((i+1)%n), 1+rng.Float64()*5); err != nil {
			t.Fatal(err)
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
	b := graph.NewDigraphBuilder(3)
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
	if g.NumNodes() != 3 || g.NumArcs() != 2 {
		t.Fatalf("|V|=%d arcs=%d", g.NumNodes(), g.NumArcs())
	}
	out, err := g.Out().Adjacency(0, nil)
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
	if _, err := g.Out().Adjacency(9, nil); err == nil {
		t.Fatal("out-of-range adjacency accepted")
	}
}

func TestDirectedOneWayStreetAsymmetry(t *testing.T) {
	// A one-way shortcut: p can reach q in 1 but the return path costs 10.
	// A rival point x sits 2 away from p (both directions). Under directed
	// semantics q IS p's nearest reachable object (1 < 2); under
	// undirected-style reasoning from the query side (d(q→p) = 10) one
	// might wrongly reject p.
	b := graph.NewDigraphBuilder(4)
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
	ds := NewDirectedSearcher(g)
	r, err := ds.EagerRkNN(ps, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 1 || r.Points[0] != p {
		t.Fatalf("directed RNN(q) = %v, want [p=%d] (x=%d has p closer)", r.Points, p, x)
	}
	rb, err := ds.BruteRkNN(ps, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(r, rb) {
		t.Fatalf("eager=%s brute=%s", describe(r), describe(rb))
	}
}

// TestDirectedEagerAgreesWithBrute is the directed property test.
func TestDirectedEagerAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	iters := 200
	if testing.Short() {
		iters = 40
	}
	for it := 0; it < iters; it++ {
		n := 8 + rng.Intn(40)
		g := randDigraph(t, rng, n)
		ds := NewDirectedSearcher(g)
		ps := points.NewNodeSet(n)
		perm := rng.Perm(n)
		for i := 0; i < 1+rng.Intn(n/2); i++ {
			if _, err := ps.Place(graph.NodeID(perm[i])); err != nil {
				t.Fatal(err)
			}
		}
		k := 1 + rng.Intn(3)
		pts := ps.Points()
		qp := pts[rng.Intn(len(pts))]
		qnode, _ := ps.NodeOf(qp)
		view := points.ExcludeNode(ps, qp)

		want, err := ds.BruteRkNN(view, qnode, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.EagerRkNN(view, qnode, k)
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(want, got) {
			t.Fatalf("iter %d: directed eager=%s brute=%s (|V|=%d |P|=%d k=%d q=%d)",
				it, describe(got), describe(want), n, view.Len(), k, qnode)
		}
	}
}

// TestDirectedMatchesUndirectedOnSymmetricGraphs: when every arc has its
// reverse twin with the same weight, directed semantics must coincide with
// the undirected algorithms.
func TestDirectedMatchesUndirectedOnSymmetricGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for it := 0; it < 60; it++ {
		net := randTestNet(t, rng)
		db := graph.NewDigraphBuilder(net.g.NumNodes())
		net.g.ForEachEdge(func(u, v graph.NodeID, w float64) {
			if err := db.AddArc(u, v, w); err != nil {
				t.Fatal(err)
			}
			if err := db.AddArc(v, u, w); err != nil {
				t.Fatal(err)
			}
		})
		dg, err := db.Build()
		if err != nil {
			t.Fatal(err)
		}
		ds := NewDirectedSearcher(dg)
		s := NewSearcher(net.g)
		k := 1 + rng.Intn(3)
		qnode := graph.NodeID(rng.Intn(net.g.NumNodes()))
		want, err := runRNN(s, AlgoEager, net.ps, nil, qnode, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ds.EagerRkNN(net.ps, qnode, k)
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(want, got) {
			t.Fatalf("iter %d: directed=%s undirected=%s (q=%d k=%d)", it, describe(got), describe(want), qnode, k)
		}
	}
}

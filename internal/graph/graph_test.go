package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, b *Builder) *Graph {
	t.Helper()
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(3, 2, 1.5); err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("|V|=%d |E|=%d, want 4, 3", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatalf("degrees = %d,%d", g.Degree(1), g.Degree(0))
	}
	adj, err := g.Adjacency(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(adj) != 2 || adj[0].To != 1 || adj[1].To != 3 {
		t.Fatalf("adjacency(2) = %+v", adj)
	}
	if w, ok := g.EdgeWeight(2, 3); !ok || w != 1.5 {
		t.Fatalf("EdgeWeight(2,3) = %v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(0, 3); ok {
		t.Fatal("EdgeWeight found a non-existent edge")
	}
}

func TestBuilderRejectsBadEdges(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddEdge(1, 1, 1); err == nil {
		t.Fatal("self loop accepted")
	}
	if err := b.AddEdge(0, 3, 1); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := b.AddEdge(0, 1, -2); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestBuilderDeduplicatesKeepingMinWeight(t *testing.T) {
	b := NewBuilder(2)
	for _, w := range []float64{5, 2, 9} {
		if err := b.AddEdge(0, 1, w); err != nil {
			t.Fatal(err)
		}
	}
	g := mustBuild(t, b)
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if w, _ := g.EdgeWeight(0, 1); w != 2 {
		t.Fatalf("weight = %v, want min 2", w)
	}
}

func TestAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if err := b.AddEdge(NodeID(u), NodeID(v), 1+rng.Float64()); err != nil {
				return false
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// Undirected: u in adj(v) iff v in adj(u), with equal weights.
		var adj []Edge
		for u := NodeID(0); int(u) < n; u++ {
			adj, _ = g.Adjacency(u, adj)
			local := append([]Edge(nil), adj...)
			for _, e := range local {
				w, ok := g.EdgeWeight(e.To, u)
				if !ok || w != e.W {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachEdgeCountsEachOnce(t *testing.T) {
	b := NewBuilder(5)
	edges := [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := mustBuild(t, b)
	count := 0
	g.ForEachEdge(func(u, v NodeID, w float64) {
		if u >= v {
			t.Fatalf("ForEachEdge yielded (%d,%d) with u >= v", u, v)
		}
		count++
	})
	if count != len(edges) {
		t.Fatalf("ForEachEdge visited %d edges, want %d", count, len(edges))
	}
	if got := g.AverageDegree(); got != float64(2*len(edges))/5 {
		t.Fatalf("AverageDegree = %v", got)
	}
}

func TestCoords(t *testing.T) {
	b := NewBuilder(2)
	if err := b.SetCoords([]Coord{{1, 2}}); err == nil {
		t.Fatal("SetCoords accepted wrong length")
	}
	if err := b.SetCoords([]Coord{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g := mustBuild(t, b)
	c, ok := g.Coord(1)
	if !ok || c != (Coord{3, 4}) {
		t.Fatalf("Coord(1) = %+v, %v", c, ok)
	}
}

func TestConnectedComponent(t *testing.T) {
	// Two components: {0,1,2} and {3,4}; largest is the triangle.
	b := NewBuilder(5)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {0, 2}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1], 1); err != nil {
			t.Fatal(err)
		}
	}
	g := mustBuild(t, b)
	cc := ConnectedComponent(g)
	if len(cc) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(cc))
	}
	for i, n := range []NodeID{0, 1, 2} {
		if cc[i] != n {
			t.Fatalf("component = %v", cc)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	b := NewBuilder(5)
	coords := []Coord{{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}}
	if err := b.SetCoords(coords); err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}} {
		if err := b.AddEdge(e[0], e[1], float64(e[0]+e[1])); err != nil {
			t.Fatal(err)
		}
	}
	g := mustBuild(t, b)
	sub, remap, err := InducedSubgraph(g, []NodeID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("sub |V|=%d |E|=%d, want 3, 2", sub.NumNodes(), sub.NumEdges())
	}
	if remap[0] != -1 || remap[1] != 0 || remap[3] != 2 {
		t.Fatalf("remap = %v", remap)
	}
	if w, ok := sub.EdgeWeight(0, 1); !ok || w != 3 {
		t.Fatalf("sub edge (0,1) weight = %v,%v, want 3", w, ok)
	}
	if c, ok := sub.Coord(2); !ok || c != (Coord{3, 0}) {
		t.Fatalf("sub coord(2) = %+v", c)
	}
}

func TestAdjacencyOutOfRange(t *testing.T) {
	g := mustBuild(t, NewBuilder(1))
	if _, err := g.Adjacency(1, nil); err == nil {
		t.Fatal("out-of-range adjacency accepted")
	}
	if _, err := g.Adjacency(-1, nil); err == nil {
		t.Fatal("negative adjacency accepted")
	}
}

// TestInReversesEveryArc: on random mixes of one-way arcs and undirected
// edges, In() lists exactly the arcs of the graph reversed, is its own
// inverse, and collapses onto the graph itself exactly when every arc has
// an equal-weight twin.
func TestInReversesEveryArc(t *testing.T) {
	type key struct{ u, v NodeID }
	arcsOf := func(a Access) map[key]float64 {
		m := make(map[key]float64)
		var adj []Edge
		for u := NodeID(0); int(u) < a.NumNodes(); u++ {
			adj, _ = a.Adjacency(u, adj)
			for _, e := range adj {
				m[key{u, e.To}] = e.W
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 50; it++ {
		n := 2 + rng.Intn(30)
		b := NewBuilder(n)
		oneWay := it%5 != 0 // every fifth graph is edges only
		for i := 0; i < 3*n; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			add := b.AddEdge
			if oneWay && rng.Intn(2) == 0 {
				add = b.AddArc
			}
			if err := add(u, v, float64(1+rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		}
		g := mustBuild(t, b)
		out, in := arcsOf(g), arcsOf(g.In())
		symmetric := true
		for a, w := range out {
			if rw, ok := in[key{a.v, a.u}]; !ok || rw != w || len(in) != len(out) {
				t.Fatalf("iter %d: arc %d→%d (%v) is %v, %v reversed; %d arcs in, %d out", it, a.u, a.v, w, rw, ok, len(in), len(out))
			}
			if tw, ok := out[key{a.v, a.u}]; !ok || tw != w {
				symmetric = false
			}
		}
		if g.Directed() == symmetric || (g.In() == Access(g)) != symmetric || g.In().In() != Access(g) {
			t.Fatalf("iter %d: symmetric=%v but Directed()=%v, In()==g: %v, In().In()==g: %v",
				it, symmetric, g.Directed(), g.In() == Access(g), g.In().In() == Access(g))
		}
	}
}

package gen

import (
	"math"
	"math/rand"
	"testing"

	"graphrnn/internal/graph"
)

func TestCoauthorshipPaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale generation skipped in -short")
	}
	c, err := NewCoauthorship(DefaultCoauthorship(1))
	if err != nil {
		t.Fatal(err)
	}
	v, e := c.G.NumNodes(), c.G.NumEdges()
	// The paper's cleaned DBLP graph: 4,260 nodes, 13,199 edges. The
	// generator must land within 15% on both axes.
	if math.Abs(float64(v)-4260) > 0.15*4260 {
		t.Fatalf("|V| = %d, want ≈ 4260", v)
	}
	if math.Abs(float64(e)-13199) > 0.15*13199 {
		t.Fatalf("|E| = %d, want ≈ 13199", e)
	}
	// Connected by construction (largest component).
	if got := len(graph.ConnectedComponent(c.G)); got != v {
		t.Fatalf("component size %d != |V| %d", got, v)
	}
	// Unit weights.
	c.G.ForEachEdge(func(u, vv graph.NodeID, w float64) {
		if w != 1 {
			t.Fatalf("edge (%d,%d) has weight %v, want 1", u, vv, w)
		}
	})
	// Attribute selectivity: most authors have zero papers in the last
	// venue, and counts decrease with the threshold (Table 1's knob).
	var byCount [3]int
	for _, pc := range c.PaperCounts {
		if pc[0] < len(byCount) {
			byCount[pc[0]]++
		}
	}
	n0, n1, n2 := byCount[0], byCount[1], byCount[2]
	if !(n0 > n1 && n1 > n2 && n2 > 0) {
		t.Fatalf("venue-count selectivity not monotone: %d, %d, %d", n0, n1, n2)
	}
}

func TestCoauthorshipDeterminism(t *testing.T) {
	cfg := CoauthorshipConfig{Seed: 7, TargetNodes: 300, TargetEdges: 900, Venues: 3}
	a, err := NewCoauthorship(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCoauthorship(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumNodes() != b.G.NumNodes() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("same seed produced different graphs: (%d,%d) vs (%d,%d)",
			a.G.NumNodes(), a.G.NumEdges(), b.G.NumNodes(), b.G.NumEdges())
	}
	c, err := NewCoauthorship(CoauthorshipConfig{Seed: 8, TargetNodes: 300, TargetEdges: 900, Venues: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumEdges() == c.G.NumEdges() && a.G.NumNodes() == c.G.NumNodes() {
		// Different seeds may coincide in size, but the degree sequence
		// should differ somewhere; a weak check suffices.
		same := true
		for n := 0; n < a.G.NumNodes() && same; n++ {
			if a.G.Degree(graph.NodeID(n)) != c.G.Degree(graph.NodeID(n)) {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestCoauthorshipValidation(t *testing.T) {
	if _, err := NewCoauthorship(CoauthorshipConfig{Seed: 1, TargetNodes: 2, TargetEdges: 1, Venues: 1}); err == nil {
		t.Fatal("tiny config accepted")
	}
	if _, err := NewCoauthorship(CoauthorshipConfig{Seed: 1, TargetNodes: 100, TargetEdges: 300, Venues: 0}); err == nil {
		t.Fatal("zero venues accepted")
	}
}

func TestBriteDegreeAndExpansion(t *testing.T) {
	g, err := Brite(BriteConfig{Seed: 3, Nodes: 5000, AvgDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5000 {
		t.Fatalf("|V| = %d", g.NumNodes())
	}
	if d := g.AverageDegree(); math.Abs(d-4) > 0.2 {
		t.Fatalf("average degree = %v, want ≈ 4", d)
	}
	if got := len(graph.ConnectedComponent(g)); got != g.NumNodes() {
		t.Fatalf("BRITE topology disconnected: component %d of %d", got, g.NumNodes())
	}
	// Exponential expansion: the hop-ball around a node saturates the
	// graph within a few hops (the effect behind Figs 15-16).
	frontier := []graph.NodeID{0}
	seen := map[graph.NodeID]bool{0: true}
	var adj []graph.Edge
	hops := 0
	for len(seen) < g.NumNodes()/2 && hops < 30 {
		var next []graph.NodeID
		for _, u := range frontier {
			adj, _ = g.Adjacency(u, adj)
			for _, e := range adj {
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
		hops++
	}
	if hops > 10 {
		t.Fatalf("half the topology reached only after %d hops; not low-diameter", hops)
	}
	// Scale-free flavour: the maximum degree is far above the average.
	maxDeg := 0
	for n := 0; n < g.NumNodes(); n++ {
		if d := g.Degree(graph.NodeID(n)); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 30 {
		t.Fatalf("max degree %d; expected a heavy tail", maxDeg)
	}
}

func TestRoadNetworkShape(t *testing.T) {
	g, err := RoadNetwork(RoadConfig{Seed: 4, Nodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	v := g.NumNodes()
	if v < 17000 {
		t.Fatalf("largest component kept only %d of 20000 nodes", v)
	}
	ratio := float64(g.NumEdges()) / float64(v)
	if ratio < 1.1 || ratio > 1.45 {
		t.Fatalf("|E|/|V| = %v, want ≈ 1.27 (SF map)", ratio)
	}
	if g.Coords() == nil {
		t.Fatal("road network has no coordinates")
	}
	// Weights are the Euclidean distances of the embedded endpoints.
	coords := g.Coords()
	bad := 0
	g.ForEachEdge(func(u, vv graph.NodeID, w float64) {
		d := math.Hypot(coords[u].X-coords[vv].X, coords[u].Y-coords[vv].Y)
		if math.Abs(d-w) > 1e-9 {
			bad++
		}
	})
	if bad > 0 {
		t.Fatalf("%d edges with non-Euclidean weights", bad)
	}
	// Planar-ish: no exponential expansion — the 5-hop ball is small.
	frontier := []graph.NodeID{graph.NodeID(v / 2)}
	seen := map[graph.NodeID]bool{frontier[0]: true}
	var adj []graph.Edge
	for hop := 0; hop < 5; hop++ {
		var next []graph.NodeID
		for _, u := range frontier {
			adj, _ = g.Adjacency(u, adj)
			for _, e := range adj {
				if !seen[e.To] {
					seen[e.To] = true
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	if len(seen) > v/10 {
		t.Fatalf("5-hop ball covers %d of %d nodes; not spatial", len(seen), v)
	}
}

func TestGridDegrees(t *testing.T) {
	for _, deg := range []float64{4, 5, 6, 7} {
		g, err := Grid(GridConfig{Seed: 5, Nodes: 10000, Degree: deg})
		if err != nil {
			t.Fatal(err)
		}
		got := g.AverageDegree()
		if math.Abs(got-deg) > 0.25 {
			t.Fatalf("degree %v: average degree = %v", deg, got)
		}
		if comp := len(graph.ConnectedComponent(g)); comp != g.NumNodes() {
			t.Fatalf("grid disconnected: %d of %d", comp, g.NumNodes())
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := Brite(BriteConfig{Seed: 1, Nodes: 2, AvgDegree: 4}); err == nil {
		t.Fatal("tiny BRITE accepted")
	}
	if _, err := RoadNetwork(RoadConfig{Seed: 1, Nodes: 4}); err == nil {
		t.Fatal("tiny road network accepted")
	}
	if _, err := Grid(GridConfig{Seed: 1, Nodes: 4}); err == nil {
		t.Fatal("tiny grid accepted")
	}
}

func TestWorkloadHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, err := Grid(GridConfig{Seed: 2, Nodes: 400, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := PlaceNodePoints(rng, g.NumNodes(), 40)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 40 {
		t.Fatalf("placed %d points", ps.Len())
	}
	if _, err := PlaceNodePoints(rng, 10, 20); err == nil {
		t.Fatal("overfull placement accepted")
	}
	el := Edges(g)
	if len(el.U) != g.NumEdges() {
		t.Fatalf("edge list has %d edges, want %d", len(el.U), g.NumEdges())
	}
	eps, err := PlaceEdgePoints(rng, el, 55)
	if err != nil {
		t.Fatal(err)
	}
	if eps.Len() != 55 {
		t.Fatalf("placed %d edge points", eps.Len())
	}
	for _, p := range eps.Points() {
		loc, ok := eps.Loc(p)
		if !ok {
			t.Fatalf("point %d has no location", p)
		}
		if w, exists := g.EdgeWeight(loc.U, loc.V); !exists || loc.Pos < 0 || loc.Pos > w {
			t.Fatalf("point %d at invalid location %+v (w=%v, exists=%v)", p, loc, w, exists)
		}
	}
	route := RandomWalkRoute(rng, g, 16)
	if len(route) == 0 || len(route) > 16 {
		t.Fatalf("route length %d", len(route))
	}
	seen := map[graph.NodeID]bool{}
	for i, n := range route {
		if seen[n] {
			t.Fatal("route repeats a node")
		}
		seen[n] = true
		if i > 0 {
			if _, ok := g.EdgeWeight(route[i-1], n); !ok {
				t.Fatalf("route hop %d-%d not an edge", route[i-1], n)
			}
		}
	}
}

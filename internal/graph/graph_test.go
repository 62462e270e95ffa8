package graph

import (
	"math"
	"math/rand"
	"strings"
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
	if w, ok := g.EdgeWeight(2, 3); !ok || g.Float(w) != 1.5 {
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
	if w, _ := g.EdgeWeight(0, 1); g.Float(w) != 2 {
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
	g.ForEachEdge(func(u, v NodeID, w Dist) {
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
	if w, ok := sub.EdgeWeight(0, 1); !ok || sub.Float(w) != 3 {
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
	arcsOf := func(a Access) map[key]Dist {
		m := make(map[key]Dist)
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

// warc is an arc as added: {u, v, w}.
type warc struct {
	u, v NodeID
	w    float64
}

// buildArcs builds a graph over n nodes from arcs {u, v, w}.
func buildArcs(t *testing.T, n int, arcs ...warc) (*Graph, error) {
	t.Helper()
	b := NewBuilder(n)
	for _, a := range arcs {
		if err := b.AddArc(a.u, a.v, a.w); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestQuantumFollowsSum pins Q = 2^(⌈log₂ S⌉ − 52), S the sum of every
// arc's weight (an edge counts twice), and that every weight lands on it
// within Q/2.
func TestQuantumFollowsSum(t *testing.T) {
	for _, c := range []struct {
		name string
		w    []float64 // edges 0–1, 1–2, …
		logQ int
	}{
		{"S=10", []float64{3, 2}, 4 - 52},
		{"S=4, a power of two", []float64{1, 1}, 2 - 52},
		{"S=0.6+0.4+0.2 twice", []float64{0.3, 0.2, 0.1}, 1 - 52},
		{"S=2·1000.5", []float64{1000.5}, 11 - 52},
		{"S=2^-20", []float64{0x1p-22, 0x1p-22}, -20 - 52},
	} {
		b := NewBuilder(len(c.w) + 1)
		for i, w := range c.w {
			if err := b.AddEdge(NodeID(i), NodeID(i+1), w); err != nil {
				t.Fatal(err)
			}
		}
		g := mustBuild(t, b)
		if g.LogQuantum() != c.logQ || g.Quantum() != math.Ldexp(1, c.logQ) {
			t.Errorf("%s: Q = %v (2^%d), want 2^%d", c.name, g.Quantum(), g.LogQuantum(), c.logQ)
		}
		for i, w := range c.w {
			stored, _ := g.EdgeWeight(NodeID(i), NodeID(i+1))
			if got := g.Float(stored); math.Abs(got-w) > g.Quantum()/2 {
				t.Errorf("%s: weight %v stored as %v, more than Q/2 = %v away", c.name, w, got, g.Quantum()/2)
			}
		}
	}
}

// TestQuantumRefusals: a weight below Q/2 rounds to 0 and is refused with
// the quantum named; Q/2 itself rounds up to Q; a sum past the float64
// range has no grid and is refused.
func TestQuantumRefusals(t *testing.T) {
	// S = 1.5 + tiny: Q = 2^-51.
	const q = 0x1p-51
	_, err := buildArcs(t, 3, warc{0, 1, 1}, warc{1, 0, 0.5}, warc{1, 2, q / 4})
	if err == nil || !strings.Contains(err.Error(), "quantum 4.440892098500626e-16 (2^-51)") {
		t.Fatalf("a weight of Q/4 gave %v, want a refusal naming the quantum", err)
	}
	g, err := buildArcs(t, 3, warc{0, 1, 1}, warc{1, 0, 0.5}, warc{1, 2, q / 2})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := g.EdgeWeight(1, 2); g.Quantum() != q || w != 1 {
		t.Fatalf("a weight of Q/2 built as %v on Q = %v, want Q", w, g.Quantum())
	}
	if _, err := buildArcs(t, 2, warc{0, 1, math.MaxFloat64}, warc{1, 0, math.MaxFloat64}); err == nil || !strings.Contains(err.Error(), "float64 range") {
		t.Fatalf("weights summing to +Inf gave %v, want a refusal", err)
	}
}

// TestQuantumRebuildIsNoOp: a graph built again from its own weights — or
// from a subset, as InducedSubgraph does behind gen.RoadNetwork's
// ConnectedComponent — gets a grid no coarser than its own, and a finer Q
// divides a coarser one, so every weight comes through bit for bit.
func TestQuantumRebuildIsNoOp(t *testing.T) {
	same := func(t *testing.T, what string, g, h *Graph, remap []NodeID) {
		t.Helper()
		if h.LogQuantum() > g.LogQuantum() {
			t.Errorf("%s: Q went from 2^%d to the coarser 2^%d", what, g.LogQuantum(), h.LogQuantum())
		}
		g.ForEachEdge(func(u, v NodeID, w Dist) {
			if remap[u] < 0 || remap[v] < 0 {
				return
			}
			if got, ok := h.EdgeWeight(remap[u], remap[v]); !ok || math.Float64bits(h.Float(got)) != math.Float64bits(g.Float(w)) {
				t.Errorf("%s: edge (%d,%d) weighs %v, built again %v", what, u, v, w, got)
			}
		})
	}
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder(60)
	for i := 1; i < 60; i++ {
		if err := b.AddEdge(NodeID(rng.Intn(i)), NodeID(i), 0.01+rng.Float64()*10); err != nil {
			t.Fatal(err)
		}
	}
	g := mustBuild(t, b)
	all := make([]NodeID, g.NumNodes())
	for i := range all {
		all[i] = NodeID(i)
	}
	for _, keep := range [][]NodeID{all, all[:30], all[10:]} {
		sub, remap, err := InducedSubgraph(g, keep)
		if err != nil {
			t.Fatal(err)
		}
		same(t, "induced subgraph", g, sub, remap)
	}

	// Rounding carries the sum past 2^⌈log₂ S⌉: S = 4 − 2^-51, so Q would
	// be 2^-50, but w1 and w2 sit half a quantum above the grid and w3
	// half a quantum below it, and rounded they sum to 4 + 2^-50. Q doubles
	// to 2^-49, where the rounded weights sum below 8 and a rebuild (Q =
	// 2^-50, finer) moves none of them. On 2^-50 a rebuild would see a sum
	// past 4, round on 2^-49 and move w1 and w2.
	w1, w3 := 1.5+0x1p-51, 1-1.5*0x1p-50
	g, err := buildArcs(t, 3, warc{0, 1, w1}, warc{1, 2, w1}, warc{2, 0, w3})
	if err != nil {
		t.Fatal(err)
	}
	if g.LogQuantum() != -49 {
		t.Fatalf("Q = 2^%d, want 2^-49", g.LogQuantum())
	}
	var again []warc
	g.ForEachEdge(func(u, v NodeID, w Dist) { again = append(again, warc{u, v, g.Float(w)}) })
	h, err := buildArcs(t, 3, again...)
	if err != nil {
		t.Fatal(err)
	}
	same(t, "rebuilt", g, h, []NodeID{0, 1, 2})
}

// TestQuantumMatchesTwins: arcs whose weights round to one multiple of Q
// are twins, so AddArc(u,v,w) + AddArc(v,u,w′) builds an undirected edge
// when |w − w′| < Q/2 puts them on the same grid point — 0.3 and 0.1+0.2
// (0.30000000000000004) among them.
func TestQuantumMatchesTwins(t *testing.T) {
	w, w2 := 0.3, 0.1
	w2 += 0.2
	g, err := buildArcs(t, 2, warc{0, 1, w}, warc{1, 0, w2})
	if err != nil {
		t.Fatal(err)
	}
	if w == w2 || math.Abs(w-w2) >= g.Quantum()/2 {
		t.Fatalf("test setup: %v and %v are not within Q/2 = %v", w, w2, g.Quantum()/2)
	}
	if g.Directed() || g.NumEdges() != 1 {
		t.Fatalf("arcs of %v and %v built a directed graph (%d arcs)", w, w2, g.NumEdges())
	}
	if fwd, _ := g.EdgeWeight(0, 1); fwd != g.Round(w2) {
		t.Fatalf("edge weighs %v, want %v", fwd, g.Round(w2))
	}
}

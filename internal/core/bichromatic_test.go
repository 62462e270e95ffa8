package core

import (
	"math/rand"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/oracle"
	"graphrnn/internal/points"
)

// fig1bNetwork reconstructs the relationships of the Fig 1b road-network
// example: residential blocks p1..p5 (candidates) and restaurants q, q1,
// q2 (sites), with bRNN(q) = {p1,p2,p3}, bRNN(q1) = {p4,p5}, bRNN(q2) = {}.
// We build a restricted network with those relationships (the paper's
// figure is unrestricted; Section 1 notes the two are interconvertible by
// adding nodes for points).
func fig1bNetwork(t *testing.T) (*graph.Graph, *points.NodeSet, *points.NodeSet) {
	t.Helper()
	// Nodes: 0=q, 1=q1, 2=q2, 3..7 = p1..p5, 8,9 = empty junctions.
	b := graph.NewBuilder(10)
	edges := []struct {
		u, v graph.NodeID
		w    float64
	}{
		{0, 3, 1},  // q - p1
		{3, 4, 1},  // p1 - p2 (d(p2,q)=2)
		{4, 8, 1},  // p2 - junction
		{8, 5, 1},  // junction - p3 (d(p3,q)=3)
		{8, 1, 4},  // junction - q1 (d(p3,q1)=5 > 3)
		{1, 6, 1},  // q1 - p4
		{6, 7, 1},  // p4 - p5
		{7, 9, 1},  // p5 - junction2
		{9, 2, 6},  // junction2 - q2 (far from everything)
		{2, 0, 20}, // q2 - q long way around
	}
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cands := points.NewNodeSet(10)
	for _, n := range []graph.NodeID{3, 4, 5, 6, 7} { // p1..p5
		if _, err := cands.Place(n); err != nil {
			t.Fatal(err)
		}
	}
	sites := points.NewNodeSet(10)
	for _, n := range []graph.NodeID{0, 1, 2} { // q, q1, q2
		if _, err := sites.Place(n); err != nil {
			t.Fatal(err)
		}
	}
	return g, cands, sites
}

func TestFig1bBichromaticExample(t *testing.T) {
	g, cands, sites := fig1bNetwork(t)
	s := NewSearcher(g)

	// Querying from a competitor site location: the site itself must be
	// hidden from the pruning set (it is the query).
	type queryCase struct {
		name  string
		qnode graph.NodeID
		qsite points.PointID
		want  []points.PointID
	}
	cases := []queryCase{
		{"q", 0, 0, []points.PointID{0, 1, 2}}, // p1,p2,p3
		{"q1", 1, 1, []points.PointID{3, 4}},   // p4,p5
		{"q2", 2, 2, nil},                      // empty
	}
	for _, c := range cases {
		view := points.ExcludeNode(sites, c.qsite)
		mat, err := matBuild(s, PointSet{Node: view}, 2, newMemMatFile(), 16, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func() (*Result, error){
			"brute":  func() (*Result, error) { return runBi(s, AlgoBrute, cands, view, nil, c.qnode, 1) },
			"eager":  func() (*Result, error) { return runBi(s, AlgoEager, cands, view, nil, c.qnode, 1) },
			"eagerM": func() (*Result, error) { return runBi(s, AlgoEagerM, cands, view, mat, c.qnode, 1) },
			"lazy":   func() (*Result, error) { return runBi(s, AlgoLazy, cands, view, nil, c.qnode, 1) },
			"lazyEP": func() (*Result, error) { return runBi(s, AlgoLazyEP, cands, view, nil, c.qnode, 1) },
		} {
			r, err := run()
			if err != nil {
				t.Fatalf("%s(%s): %v", name, c.name, err)
			}
			if len(r.Points) != len(c.want) {
				t.Fatalf("%s: bRNN(%s) = %v, want %v", name, c.name, r.Points, c.want)
			}
			for i := range c.want {
				if r.Points[i] != c.want[i] {
					t.Fatalf("%s: bRNN(%s) = %v, want %v", name, c.name, r.Points, c.want)
				}
			}
		}
	}
}

func TestFig1bBR2NN(t *testing.T) {
	// The paper also gives bR2NN results for Fig 1b; with our
	// reconstructed distances the k=2 sets are checked against brute
	// force rather than the paper's figure-specific values.
	g, cands, sites := fig1bNetwork(t)
	s := NewSearcher(g)
	for _, qnode := range []graph.NodeID{0, 1, 2} {
		qsite, _ := sites.PointAt(qnode)
		view := points.ExcludeNode(sites, qsite)
		want, err := runBi(s, AlgoBrute, cands, view, nil, qnode, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runBi(s, AlgoEager, cands, view, nil, qnode, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(want, got) {
			t.Fatalf("bR2NN from %d: eager=%s brute=%s", qnode, describe(got), describe(want))
		}
	}
}

// TestBichromaticAgreesWithBrute: all four algorithms and brute force
// (with VerifyMember, see run) against the oracle on random networks with
// independent random candidate/site sets, plus a float-tie network.
func TestBichromaticAgreesWithBrute(t *testing.T) {
	check := func(g *graph.Graph, cands, sites *points.NodeSet, maxK int) {
		t.Helper()
		mat, err := matBuild(NewSearcher(g), PointSet{Node: sites}, maxK, newMemMatFile(), 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		mustMatchOracle(t, oracleCase{g: g, ps: PointSet{Node: cands}, sites: PointSet{Node: sites}, mat: mat,
			algos: []Algo{AlgoEager, AlgoEagerM, AlgoLazy, AlgoLazyEP, AlgoBrute}, ks: oracle.Depths(maxK + 1)})
	}
	rng := rand.New(rand.NewSource(60))
	for range 15 {
		n := 12 + rng.Intn(50)
		g := randNet(t, rng, n, rng.Intn(3*n), 0.5)
		check(g, randPoints(t, rng, g, 1+rng.Intn(n/2)), randPoints(t, rng, g, 1+rng.Intn(n/3)), 1+rng.Intn(3))
	}

	// The candidate on node 0 is exactly as far from node 3 as from the
	// site (node 6), so it is a member there — but the main expansion sums
	// its path to 0.6000000000000001 while the site's sums to 0.6: every
	// "strictly closer" test must absorb that last bit.
	b := graph.NewBuilder(7)
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{{0, 1, 0.3}, {1, 2, 0.2}, {2, 3, 0.1}, {0, 4, 0.1}, {4, 5, 0.2}, {5, 6, 0.3}, {3, 6, 0.05}} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cands, sites := points.NewNodeSet(7), points.NewNodeSet(7)
	if _, err := cands.Place(0); err != nil {
		t.Fatal(err)
	}
	if _, err := sites.Place(6); err != nil {
		t.Fatal(err)
	}
	check(g, cands, sites, 1)
}

// TestBichromaticNoSites: with an empty site set every reachable candidate
// is a result.
func TestBichromaticNoSites(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := randNet(t, rng, 30, 40, 0)
	s := NewSearcher(g)
	cands := randPoints(t, rng, g, 8)
	sites := points.NewNodeSet(g.NumNodes())
	r, err := runBi(s, AlgoEager, cands, sites, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != cands.Len() {
		t.Fatalf("eager with no sites returned %d of %d candidates", len(r.Points), cands.Len())
	}
	rl, err := runBi(s, AlgoLazy, cands, sites, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(r, rl) {
		t.Fatalf("lazy disagrees: %v vs %v", rl.Points, r.Points)
	}
}

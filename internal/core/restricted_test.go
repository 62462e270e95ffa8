package core

import (
	"math/rand"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/oracle"
	"graphrnn/internal/points"
)

// paperGraph builds a network reproducing every concrete number the running
// example of Section 3 (Fig 3a) quotes. Node ids: n1..n7 map to 0..6. Data
// points: p1 on n6, p2 on n5, p3 on n7. The query q resides on n4.
//
// Quoted facts reproduced: d(q,n3)=4 > d(p1,n3)=3; range-NN(n4,1,7) is
// empty because d(p1,n4)=7 (strict range); d(n1,q)=5 > d(n1,p2)=3;
// RNN(q) = {p1, p2} with both verifications succeeding.
func paperGraph(t *testing.T) (*graph.Graph, *points.NodeSet, graph.NodeID) {
	t.Helper()
	const (
		n1 = graph.NodeID(0)
		n2 = graph.NodeID(1)
		n3 = graph.NodeID(2)
		n4 = graph.NodeID(3)
		n5 = graph.NodeID(4)
		n6 = graph.NodeID(5)
		n7 = graph.NodeID(6)
	)
	b := graph.NewBuilder(7)
	edges := []struct {
		u, v graph.NodeID
		w    float64
	}{
		{n1, n2, 3}, {n1, n4, 5}, {n1, n5, 3},
		{n2, n3, 2}, {n2, n6, 2},
		{n3, n4, 4}, {n3, n6, 3},
		{n5, n6, 9}, {n6, n7, 8},
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
	ps := points.NewNodeSet(7)
	for _, n := range []graph.NodeID{n6, n5, n7} { // p1, p2, p3
		if _, err := ps.Place(n); err != nil {
			t.Fatal(err)
		}
	}
	return g, ps, n4
}

func TestPaperExampleSection3(t *testing.T) {
	g, ps, q := paperGraph(t)
	s := NewSearcher(g)

	// Sanity-check the distances the example relies on.
	if d, _ := s.Distance(NodeLoc(q), NodeLoc(2)); d != g.Round(4) { // d(q, n3) = 4
		t.Fatalf("d(q,n3) = %v, want 4", d)
	}
	if d, _ := s.Distance(NodeLoc(5), NodeLoc(2)); d != g.Round(3) { // d(p1, n3) = 3 < d(q, n3)
		t.Fatalf("d(p1,n3) = %v, want 3", d)
	}
	if d, _ := s.Distance(NodeLoc(q), NodeLoc(0)); d != g.Round(5) { // d(q, n1) = 5
		t.Fatalf("d(q,n1) = %v, want 5", d)
	}

	want := []points.PointID{0, 1} // p1 (on n6) and p2 (on n5)
	for name, run := range map[string]func() (*Result, error){
		"brute": func() (*Result, error) { return runRNN(s, AlgoBrute, ps, nil, q, 1) },
		"eager": func() (*Result, error) { return runRNN(s, AlgoEager, ps, nil, q, 1) },
		"lazy":  func() (*Result, error) { return runRNN(s, AlgoLazy, ps, nil, q, 1) },
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Points) != len(want) {
			t.Fatalf("%s: RNN(q) = %v, want %v", name, r.Points, want)
		}
		for i := range want {
			if r.Points[i] != want[i] {
				t.Fatalf("%s: RNN(q) = %v, want %v", name, r.Points, want)
			}
		}
	}
}

func TestFig1aP2PExample(t *testing.T) {
	// Fig 1a: q joins a P2P network; RNN(q) = {p3} and notably the NN of q
	// (p1) is not an RNN because p1's NN is p2. We reconstruct a network
	// with those relationships.
	b := graph.NewBuilder(6)
	// Layout: q=0, p1=1, p2=2, p3=3, empty n1=4, n2=5.
	for _, e := range []struct {
		u, v graph.NodeID
		w    float64
	}{
		{0, 1, 3},  // q - p1
		{1, 2, 2},  // p1 - p2 (so NN(p1) = p2)
		{0, 4, 1},  // q - n1
		{4, 3, 3},  // n1 - p3: d(q,p3) = 4
		{3, 5, 10}, // p3 - n2 (dead end)
		{2, 5, 10},
	} {
		if err := b.AddEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := points.NewNodeSet(6)
	for _, n := range []graph.NodeID{1, 2, 3} { // p1, p2, p3
		if _, err := ps.Place(n); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSearcher(g)
	for name, run := range map[string]func() (*Result, error){
		"eager": func() (*Result, error) { return runRNN(s, AlgoEager, ps, nil, 0, 1) },
		"lazy":  func() (*Result, error) { return runRNN(s, AlgoLazy, ps, nil, 0, 1) },
		"brute": func() (*Result, error) { return runRNN(s, AlgoBrute, ps, nil, 0, 1) },
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Points) != 1 || r.Points[0] != 2 {
			t.Fatalf("%s: RNN(q) = %v, want [p3=2]", name, r.Points)
		}
	}
}

func TestRangeNNSemantics(t *testing.T) {
	g, ps, _ := paperGraph(t)
	s := NewSearcher(g)
	var st Stats

	// Paper example: range-NN(n4, 1, 7) is empty because the NN p1 of n4
	// has distance exactly 7 (strict range).
	if d, _ := s.Distance(NodeLoc(3), NodeLoc(5)); d != g.Round(7) {
		t.Fatalf("d(n4,p1) = %v, want 7", d)
	}
	out, err := s.rangeNN(&st, PointSet{Node: ps}, NodeLoc(3), 1, g.Round(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("range-NN(n4,1,7) = %v, want empty (strict range)", out)
	}
	// Slightly larger range finds p1 at 7.
	out, err = s.rangeNN(&st, PointSet{Node: ps}, NodeLoc(3), 1, g.Round(7.5), out)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].P != 0 || out[0].D != g.Round(7) {
		t.Fatalf("range-NN(n4,1,7.5) = %v, want [p1@7]", out)
	}
	// k=3 within a huge range returns all three points sorted by distance.
	out, err = s.rangeNN(&st, PointSet{Node: ps}, NodeLoc(3), 3, g.Round(100), out)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("range-NN(n4,3,100) returned %d points", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].D < out[i-1].D {
			t.Fatalf("range-NN results out of order: %v", out)
		}
	}
	// A zero range is empty.
	if out, _ = s.rangeNN(&st, PointSet{Node: ps}, NodeLoc(3), 1, 0, out); len(out) != 0 {
		t.Fatal("range-NN with e=0 returned points")
	}
}

func TestVerifySemantics(t *testing.T) {
	g, ps, q := paperGraph(t)
	s := NewSearcher(g)
	var st Stats

	// p1 (on n6) has q as its NN: verify(p1, 1, q) succeeds.
	ok, err := s.verify(&st, PointSet{Node: ps}, 0, NodeLoc(5), locTarget(NodeLoc(q)), 1, graph.Inf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("verify(p1,1,q) = false, want true")
	}
	// p3 (on n7) is closer to p1 than to q: verify fails for k=1 but
	// succeeds for k=2.
	ok, err = s.verify(&st, PointSet{Node: ps}, 2, NodeLoc(6), locTarget(NodeLoc(q)), 1, graph.Inf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("verify(p3,1,q) = true, want false")
	}
	ok, err = s.verify(&st, PointSet{Node: ps}, 2, NodeLoc(6), locTarget(NodeLoc(q)), 2, graph.Inf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("verify(p3,2,q) = false, want true")
	}
}

func TestVerifyTieIsInclusive(t *testing.T) {
	// Path: p' --1-- p --1-- q with another point exactly as close as q.
	// Membership is tie-inclusive: d(p,p') == d(p,q) must not disqualify p.
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := points.NewNodeSet(3)
	pPrime, _ := ps.Place(0)
	p, _ := ps.Place(1)
	_ = pPrime
	s := NewSearcher(g)
	var st Stats
	ok, err := s.verify(&st, PointSet{Node: ps}, p, NodeLoc(1), locTarget(NodeLoc(2)), 1, graph.Inf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("tie at d(p,q) disqualified p; membership must be tie-inclusive")
	}
	// All algorithms agree: p (tied) is in; p' (which has p strictly
	// closer than q) is out.
	for name, run := range map[string]func() (*Result, error){
		"eager": func() (*Result, error) { return runRNN(s, AlgoEager, ps, nil, 2, 1) },
		"lazy":  func() (*Result, error) { return runRNN(s, AlgoLazy, ps, nil, 2, 1) },
		"brute": func() (*Result, error) { return runRNN(s, AlgoBrute, ps, nil, 2, 1) },
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Points) != 1 || r.Points[0] != p {
			t.Fatalf("%s = %v, want exactly [p=%d] (tie-inclusive)", name, r.Points, p)
		}
	}
}

func TestQueryValidation(t *testing.T) {
	g, ps, _ := paperGraph(t)
	s := NewSearcher(g)
	if _, err := runRNN(s, AlgoEager, ps, nil, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := runRNN(s, AlgoEager, ps, nil, -1, 1); err == nil {
		t.Fatal("negative query node accepted")
	}
	if _, err := runRNN(s, AlgoLazy, ps, nil, 99, 1); err == nil {
		t.Fatal("out-of-range query node accepted")
	}
	if _, err := runRoute(s, AlgoEager, ps, nil, nil, 1); err == nil {
		t.Fatal("empty route accepted")
	}
}

func TestPointAtQueryNodeIsAlwaysResult(t *testing.T) {
	// A visible point co-located with the query is trivially a member for
	// any k; the strict range-NN can never discover it, so the algorithms
	// must special-case it identically.
	b := graph.NewBuilder(4)
	for i := 0; i < 3; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := points.NewNodeSet(4)
	p0, _ := ps.Place(0) // on the query node
	ps.Place(1)
	ps.Place(3)
	s := NewSearcher(g)
	for _, k := range []int{1, 2, 3} {
		for name, run := range map[string]func() (*Result, error){
			"eager": func() (*Result, error) { return runRNN(s, AlgoEager, ps, nil, 0, k) },
			"lazy":  func() (*Result, error) { return runRNN(s, AlgoLazy, ps, nil, 0, k) },
			"brute": func() (*Result, error) { return runRNN(s, AlgoBrute, ps, nil, 0, k) },
		} {
			r, err := run()
			if err != nil {
				t.Fatalf("%s k=%d: %v", name, k, err)
			}
			found := false
			for _, p := range r.Points {
				if p == p0 {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s k=%d: co-located point missing from %v", name, k, r.Points)
			}
		}
	}
}

func TestDisconnectedQueryComponent(t *testing.T) {
	// Points in a different component are never results; algorithms must
	// terminate and agree.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := points.NewNodeSet(6)
	ps.Place(2) // same component as query
	ps.Place(3) // other component
	ps.Place(5) // other component
	s := NewSearcher(g)
	for name, run := range map[string]func() (*Result, error){
		"eager": func() (*Result, error) { return runRNN(s, AlgoEager, ps, nil, 0, 1) },
		"lazy":  func() (*Result, error) { return runRNN(s, AlgoLazy, ps, nil, 0, 1) },
		"brute": func() (*Result, error) { return runRNN(s, AlgoBrute, ps, nil, 0, 1) },
	} {
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Points) != 1 || r.Points[0] != 0 {
			t.Fatalf("%s = %v, want only the same-component point", name, r.Points)
		}
	}
}

// TestEagerLazyAgreeWithBrute is the central property test: on random
// networks (mixed unit/float weights, varying density and k) eager, lazy and
// brute force answer like the oracle at every node, and at every point's
// node with that point hidden.
func TestEagerLazyAgreeWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for range 12 {
		net := randTestNet(t, rng)
		mustMatchOracle(t, oracleCase{g: net.g, ps: PointSet{Node: net.ps}, algos: []Algo{AlgoEager, AlgoLazy, AlgoBrute}, ks: oracle.Depths(4)})
	}
}

// TestLazyKBeyondInt32: lazy's per-node counters are int32, and a k past
// that range once wrapped in the comparison with them (k = 2^32 + 1 pruned
// like k = 1, k = 2^31 + 5 pruned every node), so every point reachable
// from the query must be a member whatever k above |P| a caller passes.
func TestLazyKBeyondInt32(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for range 3 {
		net := randTestNet(t, rng)
		mustMatchOracle(t, oracleCase{g: net.g, ps: PointSet{Node: net.ps}, algos: []Algo{AlgoLazy, AlgoLazyEP}, ks: []int{1<<31 + 5, 1<<32 + 1}})
	}
}

// TestEagerLazyQueryOnEmptyNode queries from every node of sparsely
// populated networks, most of which hold no data point.
func TestEagerLazyQueryOnEmptyNode(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for range 12 {
		n := 12 + rng.Intn(60)
		g := randNet(t, rng, n, rng.Intn(3*n), 0.5)
		ps := randPoints(t, rng, g, 1+rng.Intn(n/6))
		mustMatchOracle(t, oracleCase{g: g, ps: PointSet{Node: ps}, algos: []Algo{AlgoEager, AlgoLazy}, ks: oracle.Depths(3)})
	}
}

// TestLargeKReturnsEverythingReachable: with k beyond |P| every point of a
// connected network is a member at every node.
func TestLargeKReturnsEverythingReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	net := randTestNet(t, rng)
	k := net.ps.Len() + 5
	mustMatchOracle(t, oracleCase{g: net.g, ps: PointSet{Node: net.ps}, algos: []Algo{AlgoEager, AlgoLazy, AlgoBrute}, ks: []int{k}})
	res, err := runRNN(NewSearcher(net.g), AlgoBrute, net.ps, nil, 0, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != net.ps.Len() {
		t.Fatalf("brute with huge k returned %d of %d points", len(res.Points), net.ps.Len())
	}
}

func TestStatsAreAccumulated(t *testing.T) {
	g, ps, q := paperGraph(t)
	s := NewSearcher(g)
	r, err := runRNN(s, AlgoEager, ps, nil, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.NodesExpanded == 0 || r.Stats.RangeNN == 0 || r.Stats.HeapPops == 0 {
		t.Fatalf("eager stats look empty: %+v", r.Stats)
	}
	if r.Stats.Verifications == 0 {
		t.Fatalf("eager issued no verifications: %+v", r.Stats)
	}
	r, err = runRNN(s, AlgoLazy, ps, nil, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.NodesExpanded == 0 || r.Stats.Verifications == 0 {
		t.Fatalf("lazy stats look empty: %+v", r.Stats)
	}
	if r.Stats.RangeNN != 0 {
		t.Fatalf("lazy issued range-NN queries: %+v", r.Stats)
	}
}

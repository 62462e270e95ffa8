package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/oracle"
	"graphrnn/internal/points"
)

// testNet bundles a random network and a random restricted point set.
type testNet struct {
	g  *graph.Graph
	ps *points.NodeSet
}

// randNet generates a connected random graph. Unit weights (probability
// unitProb) exercise the heavily tied distances of coauthorship-style
// graphs; otherwise weights are random floats.
func randNet(t testing.TB, rng *rand.Rand, n int, extraEdges int, unitProb float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	unit := rng.Float64() < unitProb
	w := func() float64 {
		if unit {
			return 1
		}
		return float64(1+rng.Intn(20)) / 2
	}
	for i := 1; i < n; i++ {
		// Random spanning tree keeps the graph connected.
		j := rng.Intn(i)
		if err := b.AddEdge(graph.NodeID(j), graph.NodeID(i), w()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), w()); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randPoints places count points on distinct random nodes.
func randPoints(t testing.TB, rng *rand.Rand, g *graph.Graph, count int) *points.NodeSet {
	t.Helper()
	ps := points.NewNodeSet(g.NumNodes())
	perm := rng.Perm(g.NumNodes())
	for i := 0; i < count && i < len(perm); i++ {
		if _, err := ps.Place(graph.NodeID(perm[i])); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

func randTestNet(t testing.TB, rng *rand.Rand) testNet {
	n := 12 + rng.Intn(60)
	extra := rng.Intn(3 * n)
	g := randNet(t, rng, n, extra, 0.5)
	npts := 1 + rng.Intn(n/2)
	return testNet{g: g, ps: randPoints(t, rng, g, npts)}
}

func samePoints(a, b *Result) bool {
	if len(a.Points) != len(b.Points) {
		return false
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			return false
		}
	}
	return true
}

func describe(r *Result) string {
	return fmt.Sprintf("%v", r.Points)
}

// oracleCase is one input held to internal/oracle, which answers by the
// definition and shares no code with the walker.
type oracleCase struct {
	g         *graph.Graph
	ps, sites PointSet      // sites set: every query is bichromatic
	mat       *Materialized // read by AlgoEagerM, which is skipped beyond its MaxK
	algos     []Algo
	ks        []int
	routes    [][]graph.NodeID
}

// mustMatchOracle runs every algorithm of c at every probe of the oracle
// (oracle.Probes): every k at every node, inside every edge of an
// edge-resident set, at every point hidden at its own location and along
// every route.
func mustMatchOracle(t testing.TB, c oracleCase) {
	t.Helper()
	var arcs []oracle.Arc
	var adj []graph.Edge
	for u := range c.g.NumNodes() {
		adj, _ = c.g.Adjacency(graph.NodeID(u), adj)
		for _, e := range adj {
			arcs = append(arcs, oracle.Arc{U: u, V: int(e.To), W: e.W})
		}
	}
	locs := func(ps PointSet) ([]points.PointID, []oracle.Loc) {
		ids := ps.ids()
		at := make([]oracle.Loc, len(ids))
		for i, p := range ids {
			l, _ := ps.loc(p)
			at[i] = oracle.Loc{U: int(l.U), V: int(l.V), Pos: l.Pos}
		}
		return ids, at
	}
	ids, at := locs(c.ps)
	kind := KindRNN
	var sites []oracle.Loc // nil: monochromatic
	if c.sites.Node != nil || c.sites.Edge != nil {
		_, siteAt := locs(c.sites)
		kind, sites = KindBichromatic, siteAt
	}
	routes := make([][]int, len(c.routes))
	for i, r := range c.routes {
		for _, n := range r {
			routes[i] = append(routes[i], int(n))
		}
	}
	grid := 0.0
	if c.ps.Edge != nil {
		grid = c.g.Quantum()
	}
	s := NewSearcher(c.g)
	err := oracle.New(c.g.NumNodes(), arcs, at, sites).Probes(c.ks, grid, routes, func(pr oracle.Probe) error {
		r := Request{Kind: kind, K: pr.K, Points: c.ps, Sites: c.sites, Target: Loc{U: graph.NodeID(pr.At.U), V: graph.NodeID(pr.At.V), Pos: pr.At.Pos}}
		if pr.Route >= 0 {
			r.Kind, r.Route = KindContinuous, c.routes[pr.Route]
		}
		hidden := points.NoPoint
		if pr.Hidden >= 0 {
			hidden = ids[pr.Hidden]
			if r.Points = (PointSet{}); c.ps.Node != nil {
				r.Points.Node = points.ExcludeNode(c.ps.Node, hidden)
			} else {
				r.Points.Edge = points.ExcludeEdge(c.ps.Edge, hidden)
			}
		}
		want := make([]points.PointID, len(pr.Want))
		for i, j := range pr.Want {
			want[i] = ids[j]
		}
		for _, a := range c.algos {
			if a == AlgoEagerM && r.K > c.mat.MaxK() {
				continue
			}
			r.Algo, r.Mat = a, c.mat
			res, err := run(s, r)
			if err != nil {
				return fmt.Errorf("algo %d kind %d k=%d at %v hiding %d, route %v: %v", a, r.Kind, r.K, r.Target, hidden, r.Route, err)
			}
			if !slices.Equal(res.Points, want) {
				return fmt.Errorf("algo %d kind %d k=%d at %v hiding %d, route %v: got %v, oracle %v (|V|=%d |P|=%d)",
					a, r.Kind, r.K, r.Target, hidden, r.Route, res.Points, want, c.g.NumNodes(), len(ids))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// run executes r. A brute-force run additionally asserts that VerifyMember
// — the per-candidate entry a shard coordinator uses — agrees with it on
// every candidate, so every brute-force test covers both entries in
// whichever residency it runs.
func run(s *Searcher, r Request) (*Result, error) {
	res, err := s.Run(r)
	if err != nil || r.Algo != AlgoBrute {
		return res, err
	}
	member := make(map[points.PointID]bool, len(res.Points))
	for _, p := range res.Points {
		member[p] = true
	}
	for _, p := range r.Points.ids() {
		got, _, err := s.VerifyMember(r, p)
		if err != nil {
			return nil, err
		}
		if got != member[p] {
			return nil, fmt.Errorf("VerifyMember(%d) = %v, brute force's answer %v says %v", p, got, res.Points, member[p])
		}
	}
	return res, nil
}

// Shorthands building the Request of one query shape (mat is read by
// AlgoEagerM only).

func runRNN(s *Searcher, a Algo, ps points.NodeView, mat *Materialized, q graph.NodeID, k int) (*Result, error) {
	return run(s, Request{Kind: KindRNN, Algo: a, K: k, Points: PointSet{Node: ps}, Target: NodeLoc(q), Mat: mat})
}

func runRoute(s *Searcher, a Algo, ps points.NodeView, mat *Materialized, route []graph.NodeID, k int) (*Result, error) {
	return run(s, Request{Kind: KindContinuous, Algo: a, K: k, Points: PointSet{Node: ps}, Route: route, Mat: mat})
}

func runBi(s *Searcher, a Algo, cands, sites points.NodeView, mat *Materialized, q graph.NodeID, k int) (*Result, error) {
	return run(s, Request{Kind: KindBichromatic, Algo: a, K: k, Points: PointSet{Node: cands}, Sites: PointSet{Node: sites}, Target: NodeLoc(q), Mat: mat})
}

func runURNN(s *Searcher, a Algo, ps points.EdgeView, mat *Materialized, q Loc, k int) (*Result, error) {
	return run(s, Request{Kind: KindRNN, Algo: a, K: k, Points: PointSet{Edge: ps}, Target: q, Mat: mat})
}

func runURoute(s *Searcher, a Algo, ps points.EdgeView, mat *Materialized, route []graph.NodeID, k int) (*Result, error) {
	return run(s, Request{Kind: KindContinuous, Algo: a, K: k, Points: PointSet{Edge: ps}, Route: route, Mat: mat})
}

func runUBi(s *Searcher, a Algo, cands, sites points.EdgeView, mat *Materialized, q Loc, k int) (*Result, error) {
	return run(s, Request{Kind: KindBichromatic, Algo: a, K: k, Points: PointSet{Edge: cands}, Sites: PointSet{Edge: sites}, Target: q, Mat: mat})
}

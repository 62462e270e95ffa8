package core

import (
	"fmt"
	"math/rand"
	"testing"

	"graphrnn/internal/graph"
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

// run executes r. An oracle run additionally asserts that VerifyMember —
// the per-candidate entry a shard coordinator uses — agrees with it on
// every candidate, so every oracle test covers both entries in whichever
// residency it runs.
func run(s *Searcher, r Request, mat *Materialized) (*Result, error) {
	res, err := s.Run(r, mat)
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
			return nil, fmt.Errorf("VerifyMember(%d) = %v, the oracle's answer %v says %v", p, got, res.Points, member[p])
		}
	}
	return res, nil
}

// Shorthands building the Request of one query shape (mat is read by
// AlgoEagerM only).

func runRNN(s *Searcher, a Algo, ps points.NodeView, mat *Materialized, q graph.NodeID, k int) (*Result, error) {
	return run(s, Request{Kind: KindRNN, Algo: a, K: k, Points: PointSet{Node: ps}, Target: NodeLoc(q)}, mat)
}

func runRoute(s *Searcher, a Algo, ps points.NodeView, mat *Materialized, route []graph.NodeID, k int) (*Result, error) {
	return run(s, Request{Kind: KindContinuous, Algo: a, K: k, Points: PointSet{Node: ps}, Route: route}, mat)
}

func runBi(s *Searcher, a Algo, cands, sites points.NodeView, mat *Materialized, q graph.NodeID, k int) (*Result, error) {
	return run(s, Request{Kind: KindBichromatic, Algo: a, K: k, Points: PointSet{Node: cands}, Sites: PointSet{Node: sites}, Target: NodeLoc(q)}, mat)
}

func runURNN(s *Searcher, a Algo, ps points.EdgeView, mat *Materialized, q Loc, k int) (*Result, error) {
	return run(s, Request{Kind: KindRNN, Algo: a, K: k, Points: PointSet{Edge: ps}, Target: q}, mat)
}

func runURoute(s *Searcher, a Algo, ps points.EdgeView, mat *Materialized, route []graph.NodeID, k int) (*Result, error) {
	return run(s, Request{Kind: KindContinuous, Algo: a, K: k, Points: PointSet{Edge: ps}, Route: route}, mat)
}

func runUBi(s *Searcher, a Algo, cands, sites points.EdgeView, mat *Materialized, q Loc, k int) (*Result, error) {
	return run(s, Request{Kind: KindBichromatic, Algo: a, K: k, Points: PointSet{Edge: cands}, Sites: PointSet{Edge: sites}, Target: q}, mat)
}

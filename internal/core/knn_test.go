package core

import (
	"math/rand"
	"slices"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

func TestKNNMatchesBruteDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(95))
	for it := 0; it < 60; it++ {
		net := randTestNet(t, rng)
		s := NewSearcher(net.g)
		n := graph.NodeID(rng.Intn(net.g.NumNodes()))
		k := 1 + rng.Intn(5)
		got, err := s.KNN(PointSet{Node: net.ps}, NodeLoc(n), k)
		if err != nil {
			t.Fatal(err)
		}
		// Brute: distance from n to every point, sorted.
		var want []graph.Dist
		for _, p := range net.ps.Points() {
			pn, _ := net.ps.NodeOf(p)
			d, err := s.Distance(NodeLoc(n), NodeLoc(pn))
			if err != nil {
				t.Fatal(err)
			}
			if d != graph.Inf {
				want = append(want, d)
			}
		}
		slices.Sort(want)
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: KNN returned %d results, want %d", it, len(got), len(want))
		}
		for i := range got {
			if got[i].D != want[i] {
				t.Fatalf("iter %d: KNN dist[%d] = %v, want %v", it, i, got[i].D, want[i])
			}
			if i > 0 && got[i].D < got[i-1].D {
				t.Fatalf("iter %d: KNN out of order: %v", it, got)
			}
		}
	}
}

func TestUKNNMatchesBruteDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	for it := 0; it < 40; it++ {
		n := 8 + rng.Intn(25)
		g := randNet(t, rng, n, rng.Intn(2*n), 0.3)
		edges := graphEdges(g)
		s := NewSearcher(g)
		ps := randEdgePoints(t, rng, g, 1+rng.Intn(12))
		q := randULoc(rng, g, edges)
		k := 1 + rng.Intn(4)
		got, err := s.KNN(PointSet{Edge: ps}, q, k)
		if err != nil {
			t.Fatal(err)
		}
		var want []graph.Dist
		for _, p := range ps.Points() {
			loc, _ := ps.Loc(p)
			d, err := s.Distance(q, PointLoc(loc))
			if err != nil {
				t.Fatal(err)
			}
			if d != graph.Inf {
				want = append(want, d)
			}
		}
		slices.Sort(want)
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("iter %d: UKNN returned %d results, want %d (q=%v)", it, len(got), len(want), q)
		}
		for i := range got {
			if got[i].D != want[i] {
				t.Fatalf("iter %d: UKNN dist[%d] = %v, want %v", it, i, got[i].D, want[i])
			}
		}
	}
}

func TestKNNValidation(t *testing.T) {
	g, ps, _ := paperGraph(t)
	s := NewSearcher(g)
	if _, err := s.KNN(PointSet{Node: ps}, NodeLoc(0), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := s.KNN(PointSet{Node: ps}, NodeLoc(-1), 1); err == nil {
		t.Fatal("bad node accepted")
	}
	eps := points.NewEdgeSet()
	if _, err := s.KNN(PointSet{Edge: eps}, Loc{U: 0, V: 99}, 1); err == nil {
		t.Fatal("bad location accepted")
	}
}

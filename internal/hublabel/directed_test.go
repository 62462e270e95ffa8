package hublabel

import (
	"fmt"
	"math/rand"
	"testing"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// TestDirectedIndex runs the reverse index over a forward/backward
// labeling of an asymmetric graph — from memory and through a Store —
// against the oracle over its out-arcs: every query kind and incremental
// maintenance, whose end state must equal an index built from scratch.
func TestDirectedIndex(t *testing.T) {
	d := testDigraph(t, 31)
	l, err := buildSeq(d)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]Source{"memory": l, "store": roundTrip(t, l, 256, 8)} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(32))
			ps, err := gen.PlaceNodePoints(rng, d.NumNodes(), 25)
			if err != nil {
				t.Fatal(err)
			}
			sites, err := gen.PlaceNodePoints(rng, d.NumNodes(), 10)
			if err != nil {
				t.Fatal(err)
			}
			const maxK = 3
			idx, err := NewIndex(src, maxK, pointsOf(ps))
			if err != nil {
				t.Fatal(err)
			}
			sidx, err := NewIndex(src, maxK, pointsOf(sites))
			if err != nil {
				t.Fatal(err)
			}
			mustBe := func(what string, got []points.PointID, err error, want []points.PointID) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !samePoints(got, want) {
					t.Fatalf("%s: got %v, oracle %v", what, got, want)
				}
			}
			check := func(step string) {
				t.Helper()
				all, bi := newTruth(d, ps, points.NoPoint, nil), newTruth(d, ps, points.NoPoint, sites)
				for trial := 0; trial < 12; trial++ {
					pts := ps.Points()
					qp := pts[rng.Intn(len(pts))]
					q, _ := ps.NodeOf(qp)
					hidden := newTruth(d, ps, qp, nil)
					route := []graph.NodeID{q, graph.NodeID(rng.Intn(d.NumNodes())), graph.NodeID(rng.Intn(d.NumNodes()))}
					for k := 1; k <= maxK; k++ {
						what := fmt.Sprintf("%s q=%d k=%d", step, q, k)
						got, _, err := idx.RkNNExec(nil, q, k, qp)
						mustBe(what+" hidden", got, err, hidden.members(k, q))
						got, _, err = idx.RkNNExec(nil, q, k, points.NoPoint)
						mustBe(what+" visible", got, err, all.members(k, q))
						got, _, err = idx.ContinuousRkNNExec(nil, route, k, points.NoPoint)
						mustBe(what+" route", got, err, all.members(k, route...))
						got, _, err = sidx.BichromaticRkNNExec(nil, ps, q, k, points.NoPoint)
						mustBe(what+" bichromatic", got, err, bi.members(k, q))
					}
				}
			}
			check("built")
			for round := 0; round < 10; round++ {
				if pts := ps.Points(); round%2 == 0 {
					p := pts[rng.Intn(len(pts))]
					if err := ps.Delete(p); err != nil {
						t.Fatal(err)
					}
					if _, err := idx.Delete(p); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("round %d delete %d", round, p))
				} else {
					n := graph.NodeID(rng.Intn(d.NumNodes()))
					p, err := ps.Place(n)
					if err != nil {
						continue // node taken
					}
					if _, err := idx.Insert(p, n); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("round %d insert %d", round, p))
				}
			}
			if err := checkMaintained(idx, ps); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOneWayLabelingAllPairs checks the landmark order on one-way arcs: a
// one-way grid (peeled to nothing) around a tournament of 24 nodes (every
// pair joined by one arc, so undirected degree 23: all core), tied together
// by arcs in one direction only. The elimination reads out-arcs ∪ in-arcs —
// a node some of whose neighbours are known only from its in-arcs is the
// case a reading of Adjacency alone gets wrong — and for every ordered pair
// mergeDist(L_out(u), L_in(v)) equals Dijkstra's d(u→v), +Inf included, at
// every worker count.
func TestOneWayLabelingAllPairs(t *testing.T) {
	const side, clique = 8, 24
	grid := oneWayGrid(t, 41, side)
	n := side*side + clique
	rng := rand.New(rand.NewSource(42))
	b := graph.NewBuilder(n)
	var adj []graph.Edge
	for u := graph.NodeID(0); int(u) < side*side; u++ {
		adj, _ = grid.Adjacency(u, adj)
		for _, e := range adj {
			if err := b.AddArc(u, e.To, grid.Float(e.W)); err != nil {
				t.Fatal(err)
			}
		}
	}
	arc := func(u, v graph.NodeID) {
		if rng.Intn(2) == 0 {
			u, v = v, u
		}
		if err := b.AddArc(u, v, float64(1+rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
	}
	for u := side * side; u < n; u++ {
		for v := u + 1; v < n; v++ {
			arc(graph.NodeID(u), graph.NodeID(v))
		}
		arc(graph.NodeID(u), graph.NodeID(rng.Intn(side*side)))
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if d.In() == graph.Access(d) {
		t.Fatal("fixture has no one-way arc")
	}

	nbr, err := undirectedAdjacency(d, d.In())
	if err != nil {
		t.Fatal(err)
	}
	_, peeled := eliminate(nbr)
	if len(peeled) == 0 || len(peeled) == n {
		t.Fatalf("%d of %d nodes peeled: the fixture is meant to have a core and a periphery", len(peeled), n)
	}
	order, err := buildOrder(d, d.In())
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if seen[v] {
			t.Fatalf("node %d ranked twice", v)
		}
		seen[v] = true
	}
	if len(order) != n {
		t.Fatalf("order ranks %d of %d nodes", len(order), n)
	}

	for _, workers := range []int{1, 4} {
		l, _, err := BuildOpt(d, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var ob, ib []Entry
		for u := graph.NodeID(0); int(u) < n; u++ {
			want := dijkstra(d, u)
			for v := graph.NodeID(0); int(v) < n; v++ {
				got, err := labelDist(l, u, v, ob, ib)
				if err != nil {
					t.Fatal(err)
				}
				if !sameDist(got, want[v]) {
					t.Fatalf("workers %d: d(%d→%d) = %v from the labels, Dijkstra %v", workers, u, v, got, want[v])
				}
			}
		}
	}
}

package core

import (
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// fuzzDirectedCase decodes fuzz bytes into a small graph of one-way arcs
// with integer weights (exact distance ties), a point set, a site set and
// one query. Layout: [n, k, kind, q, hide, route1, route2, points lo, points
// hi, sites lo, sites hi], then (u, v, w) arc triples. ok is false when the
// bytes hold no header.
func fuzzDirectedCase(data []byte) (g *graph.Graph, r Request, ok bool) {
	const header = 11
	if len(data) < header {
		return nil, Request{}, false
	}
	n := 2 + int(data[0])%15
	node := func(b byte) graph.NodeID { return graph.NodeID(int(b) % n) }
	gb := graph.NewBuilder(n)
	for a := data[header:]; len(a) >= 3; a = a[3:] {
		// A self loop is the only arc these bytes can get wrong; skip it.
		_ = gb.AddArc(node(a[0]), node(a[1]), float64(1+a[2]%8))
	}
	g, err := gb.Build()
	if err != nil {
		return nil, Request{}, false
	}
	place := func(lo, hi byte) *points.NodeSet {
		ps := points.NewNodeSet(n)
		for i := 0; i < n; i++ {
			if (uint(hi)<<8|uint(lo))>>i&1 == 1 {
				_, _ = ps.Place(graph.NodeID(i)) // a fresh node of a fresh set: cannot fail
			}
		}
		return ps
	}
	ps, sites := place(data[7], data[8]), place(data[9], data[10])
	q := node(data[3])
	r = Request{Kind: Kind(data[2] % 3), K: 1 + int(data[1])%4, Points: PointSet{Node: ps}, Target: NodeLoc(q)}
	if p, has := ps.PointAt(q); has && data[4]&1 == 1 {
		r.Points.Node = points.ExcludeNode(ps, p)
	}
	switch r.Kind {
	case KindBichromatic:
		r.Sites = PointSet{Node: sites}
	case KindContinuous:
		r.Route = []graph.NodeID{q, node(data[5]), node(data[6])}
	}
	return g, r, true
}

// FuzzDirectedAgreement: on any small graph of one-way arcs, eager and
// lazy-EP return the brute-force answer for every kind — the directed rows
// of the substrate-agreement property.
func FuzzDirectedAgreement(f *testing.F) {
	// The one-way street of TestDirectedOneWayStreetAsymmetry: p on node 0
	// reaches q = node 1 in 1, q reaches p only in 10; x on node 2 is 2
	// from p either way and 8 from q.
	street := []byte{0, 1, 0, 1, 3, 4, 3, 0, 4, 0, 2, 1, 2, 0, 1, 2, 1, 7, 1, 2, 7}
	f.Add(append([]byte{2, 0, 0, 1, 0, 0, 0, 0b101, 0, 0, 0}, street...))
	// Not strongly connected, query co-located with a point, k >= |P|.
	f.Add([]byte{4, 3, 0, 2, 0, 0, 0, 0b100110, 0, 0, 0, 0, 1, 1, 1, 2, 1, 2, 3, 4, 5, 2, 2})
	// Bichromatic and continuous over a ring with chords, ties everywhere.
	ring := []byte{0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 0, 1, 0, 3, 2, 4, 1, 2}
	f.Add(append([]byte{4, 1, 1, 0, 1, 0, 0, 0b101011, 0, 0b010100, 0}, ring...))
	f.Add(append([]byte{4, 1, 2, 0, 1, 3, 5, 0b111010, 0, 0, 0}, ring...))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, r, ok := fuzzDirectedCase(data)
		if !ok {
			return
		}
		s := NewSearcher(g)
		r.Algo = AlgoBrute
		want, err := s.Run(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range directedAlgos {
			r.Algo = a
			got, err := s.Run(r)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got, want) {
				t.Fatalf("algo %d kind %d k=%d target %v route %v: got %s, brute %s", a, r.Kind, r.K, r.Target, r.Route, describe(got), describe(want))
			}
		}
	})
}

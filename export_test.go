package graphrnn

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"graphrnn/internal/oracle"
)

// Agreement is one input of the agreement harness: a tracked point set, the
// substrates that serve its shape, the depths to query and, for the
// monochromatic kind, routes.
type Agreement struct {
	// Points is a *NodePoints or an *EdgePoints: the data set, or the
	// candidates when Sites is set.
	Points PointSet
	// Sites, when set, makes every query bichromatic, with Sites as the
	// competitors.
	Sites PointSet
	// Algos names the substrates. Each runs as a strict hint, except
	// "auto", which is the planner's choice. A materialization or a
	// hub-label index is skipped at depths beyond its MaxK (a bichromatic
	// index serves every depth).
	Algos  map[string]Algorithm
	Ks     []int
	Routes [][]NodeID
	// InsideEdges adds one query position inside every edge to the node
	// targets; it needs an edge-resident set.
	InsideEdges bool
	// NodeStride, above 1, samples: only every NodeStride-th node is
	// asked, and no hidden point, route or edge position.
	NodeStride int
}

// CheckAgreement holds every substrate of a to internal/oracle, which shares
// no code with them, at every probe of oracle.Probes — every k of a.Ks at
// every node, inside every edge if asked, at every point hidden at its own
// location and along every route — and returns the number of answers it
// compared.
func CheckAgreement(t testing.TB, a Agreement) int {
	t.Helper()
	set, hide := tracked(a.Points)
	g := set.db.Graph()
	var arcs []oracle.Arc
	g.Edges(func(u, v NodeID, w float64) {
		arcs = append(arcs, oracle.Arc{U: int(u), V: int(v), W: w})
		if !g.Directed() {
			arcs = append(arcs, oracle.Arc{U: int(v), V: int(u), W: w})
		}
	})
	ids, at := locations(set)
	var sites []oracle.Loc // nil: monochromatic
	kind := KindRNN
	if a.Sites != nil {
		siteSet, _ := tracked(a.Sites)
		_, sites = locations(siteSet)
		kind = KindBichromatic
	}
	routes := make([][]int, len(a.Routes))
	for i, r := range a.Routes {
		for _, n := range r {
			routes[i] = append(routes[i], int(n))
		}
	}
	checks := 0
	grid := 0.0
	if a.InsideEdges {
		grid = g.Quantum()
	}
	err := oracle.New(g.NumNodes(), arcs, at, sites).Probes(a.Ks, grid, routes, func(pr oracle.Probe) error {
		if a.NodeStride > 1 && (pr.Route >= 0 || pr.Hidden >= 0 || pr.At.U != pr.At.V || pr.At.U%a.NodeStride != 0) {
			return nil
		}
		q := Query{Kind: kind, Target: Location{U: NodeID(pr.At.U), V: NodeID(pr.At.V), Pos: pr.At.Pos}, K: pr.K, Points: a.Points, Sites: a.Sites}
		if pr.Route >= 0 {
			q.Kind, q.Route = KindContinuous, a.Routes[pr.Route]
		}
		hidden := PointID(-1)
		if pr.Hidden >= 0 {
			hidden = ids[pr.Hidden]
			q.Points = hide(hidden)
		}
		want := make([]PointID, len(pr.Want))
		for i, j := range pr.Want {
			want[i] = ids[j]
		}
		for name, algo := range a.Algos {
			if algo.mat != nil && q.K > algo.mat.MaxK() || algo.hub != nil && q.Kind != KindBichromatic && q.K > algo.hub.MaxK() {
				continue
			}
			q.Algorithm, q.Strict = algo, name != "auto"
			res, err := set.db.Run(context.Background(), q)
			if err != nil {
				return fmt.Errorf("%s %s k=%d at %v hiding %d, route %v: %v", name, q.Kind, q.K, q.Target, hidden, q.Route, err)
			}
			if !slices.Equal(res.Points, want) {
				return fmt.Errorf("%s %s k=%d at %v hiding %d, route %v: got %v, oracle %v (%s)",
					name, q.Kind, q.K, q.Target, hidden, q.Route, res.Points, want, res.Plan.Explain())
			}
			checks++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return checks
}

// tracked returns the set behind ps and the view of it hiding one point.
func tracked(ps PointSet) (*trackedSet, func(PointID) PointSet) {
	switch s := ps.(type) {
	case *NodePoints:
		return &s.trackedSet, func(p PointID) PointSet { return s.Excluding(p) }
	case *EdgePoints:
		return &s.trackedSet, func(p PointID) PointSet { return s.Excluding(p) }
	}
	panic("CheckAgreement takes a *NodePoints or an *EdgePoints")
}

// locations returns the set's points, ascending, and where each resides.
func locations(s *trackedSet) ([]PointID, []oracle.Loc) {
	ids := s.Points()
	at := make([]oracle.Loc, len(ids))
	for i, p := range ids {
		l, _ := s.locationOf(p)
		at[i] = oracle.Loc{U: int(l.U), V: int(l.V), Pos: l.Pos}
	}
	return ids, at
}

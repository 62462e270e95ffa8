package graphrnn

import (
	"context"
	"fmt"
	"math"
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
// compared. At every probe with a target it also holds the KindKNN answer
// of a.Points to the oracle's distances, bit for bit, and at every point's
// own location (the first k) DB.Distance from every point to it.
func CheckAgreement(t testing.TB, a Agreement) int {
	t.Helper()
	set, hide := tracked(a.Points)
	g := set.db.Graph()
	var arcs, reversed []oracle.Arc
	g.Edges(func(u, v NodeID, w float64) {
		arcs = append(arcs, oracle.Arc{U: int(u), V: int(v), W: w})
		reversed = append(reversed, oracle.Arc{U: int(v), V: int(u), W: w})
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
	o := oracle.New(g.NumNodes(), arcs, at, sites)
	// from.Dist(i, q) is d(q → point i), what a KNN from q ranks by: over
	// the reversed arcs when they differ.
	from := o
	if g.Directed() {
		from = oracle.New(g.NumNodes(), reversed, at, nil)
	}
	err := o.Probes(a.Ks, grid, routes, func(pr oracle.Probe) error {
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
		if pr.Route < 0 {
			if err := checkKNN(set.db, from, ids, q, hidden); err != nil {
				return err
			}
		}
		if pr.Hidden >= 0 && pr.K == a.Ks[0] {
			if err := checkDistances(set.db, o, ids, at, q.Target); err != nil {
				return err
			}
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

// checkKNN holds the KindKNN answer of q.Points at q.Target to the oracle:
// the K smallest finite distances from the target, ascending and bit for
// bit, each on a distinct visible point at that very distance (which of
// several points tied at the last distance is free).
func checkKNN(db *DB, from *oracle.Oracle, ids []PointID, q Query, hidden PointID) error {
	at := oracle.Loc{U: int(q.Target.U), V: int(q.Target.V), Pos: q.Target.Pos}
	dist := make(map[PointID]float64, len(ids))
	var want []float64
	for i, p := range ids {
		if d := from.Dist(i, at); p != hidden && !math.IsInf(d, 1) {
			dist[p] = d
			want = append(want, d)
		}
	}
	slices.Sort(want)
	want = want[:min(q.K, len(want))]
	res, err := db.Run(context.Background(), Query{Kind: KindKNN, Target: q.Target, K: q.K, Points: q.Points})
	if err != nil {
		return fmt.Errorf("knn k=%d at %v hiding %d: %v", q.K, q.Target, hidden, err)
	}
	seen := make(map[PointID]bool, len(res.Neighbors))
	ok := len(res.Neighbors) == len(want)
	for i, nb := range res.Neighbors {
		d, visible := dist[nb.P]
		ok = ok && visible && !seen[nb.P] && math.Float64bits(d) == math.Float64bits(nb.Distance) &&
			math.Float64bits(nb.Distance) == math.Float64bits(want[i])
		seen[nb.P] = true
	}
	if !ok {
		return fmt.Errorf("knn k=%d at %v hiding %d: got %+v, oracle distances %v", q.K, q.Target, hidden, res.Neighbors, want)
	}
	return nil
}

// checkDistances holds DB.Distance from every point to target to the
// oracle's d(p → target), bit for bit.
func checkDistances(db *DB, o *oracle.Oracle, ids []PointID, at []oracle.Loc, target Location) error {
	to := oracle.Loc{U: int(target.U), V: int(target.V), Pos: target.Pos}
	for i, p := range ids {
		src := Location{U: NodeID(at[i].U), V: NodeID(at[i].V), Pos: at[i].Pos}
		got, err := db.Distance(src, target)
		if err != nil {
			return fmt.Errorf("distance from point %d to %v: %v", p, target, err)
		}
		if want := o.Dist(i, to); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("distance from point %d at %v to %v: got %v, oracle %v", p, src, target, got, want)
		}
	}
	return nil
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

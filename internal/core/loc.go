package core

import (
	"fmt"
	"math"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// Where things are. The paper's restricted networks (Sections 3-5.1) keep
// data points on nodes; its unrestricted ones (Section 5.2) let data points
// — and queries — lie anywhere on the edges, as triplets <n_i, n_j, pos>
// with lexicographic node ordering. The network distance between two
// positions is the minimum over the routes through either endpoint and,
// for positions on the same edge, the direct offset difference. One walker
// serves both: a node-resident point is met when its node is popped, an
// edge-resident one as a point arrival pushed when an endpoint of its edge
// is processed — including the points on the source's own edge, seeded
// directly — which guarantees every potential result is met regardless of
// how far it lies from its edge's endpoints (a member deep inside a long
// edge whose endpoints are both pruned is still on the heap).

// Loc is a location on the network: a node (U == V, Pos == 0) or a position
// on edge (U,V), U < V, at offset Pos from U. Pos is a multiple of the
// graph's quantum (graph.Builder), as every weight is, so every distance the
// walkers sum is exact and they compare them with no tolerance; the public
// layer rounds every location, and every point it places, onto the quantum.
type Loc struct {
	U, V graph.NodeID
	Pos  float64
}

// NodeLoc returns the location of node n.
func NodeLoc(n graph.NodeID) Loc { return Loc{U: n, V: n} }

// PointLoc converts an edge point location.
func PointLoc(ep points.EdgePoint) Loc { return Loc{U: ep.U, V: ep.V, Pos: ep.Pos} }

// IsNode reports whether the location is a graph node.
func (l Loc) IsNode() bool { return l.U == l.V }

// sameEdge reports whether two locations lie on the same edge.
func (l Loc) sameEdge(o Loc) bool {
	return !l.IsNode() && l.U == o.U && l.V == o.V
}

func (l Loc) String() string {
	if l.IsNode() {
		return fmt.Sprintf("node(%d)", l.U)
	}
	return fmt.Sprintf("edge(%d,%d)@%.3f", l.U, l.V, l.Pos)
}

// PointSet is a data set in one of the two residencies: exactly one view is
// set. Every loop of the walker asks both questions — which point sits on
// node n, which points sit on edge (u,v) — and the view that is nil answers
// "none".
type PointSet struct {
	Node points.NodeView
	Edge points.EdgeView
}

// at returns the node-resident point on n.
func (ps PointSet) at(n graph.NodeID) (points.PointID, bool) {
	if ps.Node == nil {
		return points.NoPoint, false
	}
	return ps.Node.PointAt(n)
}

// loc returns where visible point p lies; ok is false for a deleted or
// hidden one.
func (ps PointSet) loc(p points.PointID) (Loc, bool) {
	if ps.Node != nil {
		n, ok := ps.Node.NodeOf(p)
		return NodeLoc(n), ok
	}
	ep, ok := ps.Edge.Loc(p)
	return PointLoc(ep), ok
}

// len returns the number of visible points.
func (ps PointSet) len() int {
	if ps.Node != nil {
		return ps.Node.Len()
	}
	return ps.Edge.Len()
}

// ids returns the visible point ids in ascending order.
func (ps PointSet) ids() []points.PointID {
	if ps.Node != nil {
		return ps.Node.Points()
	}
	return ps.Edge.Points()
}

// target describes what a verification expansion must reach: the query
// location, or any node of a route for continuous queries (Section 5.1: a
// point is a result if the route is met before k closer points). It is
// passed by value: edgeW, the weight of an edge-resident target's edge, is
// resolved on the first arrival of each expansion (a counted adjacency
// read, like any edge processing).
type target struct {
	loc   Loc
	nodes map[graph.NodeID]bool // route mode when non-nil
	edgeW float64               // negative until resolved
}

func locTarget(l Loc) target { return target{loc: l, edgeW: -1} }

func routeTarget(route []graph.NodeID) target {
	m := make(map[graph.NodeID]bool, len(route))
	for _, n := range route {
		m[n] = true
	}
	return target{nodes: m}
}

// nodeHit reports whether popping node n reaches the target directly.
func (t target) nodeHit(n graph.NodeID) bool {
	if t.nodes != nil {
		return t.nodes[n]
	}
	return t.loc.U == n && t.loc.V == n
}

// seedDirect pushes the target arrival for a walk starting at from on the
// target's own edge — the direct-offset case of Section 5.2 — when within
// limit (inclusive).
func (t target) seedDirect(sc *scratch, from Loc, limit float64) {
	if t.nodes == nil && t.loc.sameEdge(from) {
		if dd := math.Abs(t.loc.Pos - from.Pos); dd <= limit {
			sc.pushTarget(dd)
		}
	}
}

// via reports whether n is an endpoint of an edge-resident target's edge,
// so that popping it reaches the target along that edge.
func (t target) via(n graph.NodeID) bool {
	return t.nodes == nil && !t.loc.IsNode() && (n == t.loc.U || n == t.loc.V)
}

// arrive pushes the target arrival through endpoint n (see via), popped at
// distance d, when it lies within limit (inclusive).
func (t *target) arrive(s *Searcher, sc *scratch, n graph.NodeID, d, limit float64) error {
	if t.edgeW < 0 {
		var err error
		if t.edgeW, err = s.edgeWeight(t.loc.U, t.loc.V, &sc.adj); err != nil {
			return err
		}
	}
	off := t.loc.Pos
	if n == t.loc.V {
		off = t.edgeW - t.loc.Pos
	}
	if nd := d + off; nd <= limit {
		sc.pushTarget(nd)
	}
	return nil
}

// edgeWeight resolves the weight of edge (u,v) with an adjacency read
// (counted I/O, like any edge processing).
func (s *Searcher) edgeWeight(u, v graph.NodeID, buf *[]graph.Edge) (float64, error) {
	var err error
	*buf, err = s.g.Adjacency(u, *buf)
	if err != nil {
		return 0, err
	}
	for _, e := range *buf {
		if e.To == v {
			return e.W, nil
		}
	}
	return 0, fmt.Errorf("core: no edge (%d,%d): %w", u, v, ErrNoEdge)
}

// checkLoc validates a location against the graph.
func (s *Searcher) checkLoc(l Loc) error {
	n := s.g.NumNodes()
	if l.U < 0 || int(l.U) >= n || l.V < 0 || int(l.V) >= n {
		return fmt.Errorf("core: location %v out of range [0,%d)", l, n)
	}
	if l.IsNode() {
		if l.Pos != 0 {
			return fmt.Errorf("core: node location %v with non-zero offset", l)
		}
		return nil
	}
	if l.U > l.V {
		return fmt.Errorf("core: edge location %v is not canonical (U < V)", l)
	}
	if err := s.symmetricOnly("locations inside an edge"); err != nil {
		return err
	}
	var adj []graph.Edge
	w, err := s.edgeWeight(l.U, l.V, &adj)
	if err != nil {
		return err
	}
	if !(l.Pos >= 0 && l.Pos <= w) { // NaN fails both
		return fmt.Errorf("core: offset %v outside edge (%d,%d) of weight %v", l.Pos, l.U, l.V, w)
	}
	return nil
}

// anchor is a node through which a location connects to the rest of the
// network, off away from it.
type anchor struct {
	node graph.NodeID
	off  float64
}

// anchors returns the anchors of l in a[:n]: a node is its own at offset 0,
// a position inside an edge has the edge's two endpoints at the direct
// offsets (resolving the edge's weight with a counted adjacency read).
func (s *Searcher) anchors(l Loc, buf *[]graph.Edge) (a [2]anchor, n int, err error) {
	if l.IsNode() {
		return [2]anchor{{node: l.U}}, 1, nil
	}
	w, err := s.edgeWeight(l.U, l.V, buf)
	return [2]anchor{{l.U, l.Pos}, {l.V, w - l.Pos}}, 2, err // garbage offsets beside an error
}

// seed pushes the expansion seeds of source location l: its anchors.
// Points and targets sharing the source's edge are seeded separately by
// the caller (they are the "direct distance" cases of Section 5.2).
func (sc *scratch) seed(s *Searcher, l Loc) error {
	as, n, err := s.anchors(l, &sc.adj)
	if err != nil {
		return err
	}
	for _, a := range as[:n] {
		sc.pushNode(noGen, a.node, a.off)
	}
	return nil
}

// pushSameEdgePoints pushes a point-arrival entry for every visible point
// of view on l's own edge at its direct distance, bounded by limit
// (inclusive). A node location shares no edge.
func (sc *scratch) pushSameEdgePoints(view points.EdgeView, set uint8, l Loc, limit float64) error {
	if view == nil || l.IsNode() {
		return nil
	}
	var err error
	if sc.refs, err = view.PointsOn(l.U, l.V, sc.refs); err != nil {
		return err
	}
	for _, ref := range sc.refs {
		if dd := math.Abs(ref.Pos - l.Pos); dd <= limit {
			sc.pushPoint(set, ref.ID, dd)
		}
	}
	return nil
}

// pushEdgePoints pushes a point-arrival entry for every visible point of
// view on edge (n, e.To), reached through node n popped at distance d and
// bounded by limit (inclusive). It returns the number of those points
// strictly farther than 0 from the walk's source (used by the lazy
// edge-crossing rule: a point at distance 0 sits on the source, so it is
// not strictly closer than the source to anything past the edge).
func (sc *scratch) pushEdgePoints(view points.EdgeView, set uint8, n graph.NodeID, d float64, e graph.Edge, limit float64) (int, error) {
	if view == nil {
		return 0, nil
	}
	var err error
	if sc.refs, err = view.PointsOn(n, e.To, sc.refs); err != nil {
		return 0, err
	}
	count := 0
	for _, ref := range sc.refs {
		off := ref.Pos
		if n > e.To {
			off = e.W - ref.Pos
		}
		nd := d + off
		if nd > 0 {
			count++
		}
		if nd <= limit {
			sc.pushPoint(set, ref.ID, nd)
		}
	}
	return count, nil
}

// pushAdjacentPoints is pushEdgePoints over every edge of sc.adj, the
// adjacency of node n.
func (sc *scratch) pushAdjacentPoints(view points.EdgeView, set uint8, n graph.NodeID, d, limit float64) error {
	for _, e := range sc.adj {
		if _, err := sc.pushEdgePoints(view, set, n, d, e, limit); err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"fmt"
	"math"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
)

// Unrestricted networks (Section 5.2): data points — and queries — may lie
// anywhere on the edges of the graph. A position is a triplet <n_i, n_j,
// pos> with lexicographic node ordering; the network distance between two
// positions is the minimum over the routes through either endpoint, and,
// for positions on the same edge, the direct offset difference.
//
// All traversals in this file run over a single heap holding three entry
// kinds: graph nodes (labelled Dijkstra-style through the scratch arrays),
// point arrivals (a point on an adjacent edge of a popped node, or on the
// source's own edge), and target arrivals (the query location). Because a
// point's entries are pushed from both endpoints of its edge (and directly
// when it shares the source's edge), the first pop of a point carries the
// exact minimum distance — the observation Fig 14 illustrates with the two
// bounds for d(q,p3).

// Loc is a location on the network: a node (U == V, Pos == 0) or a position
// on edge (U,V), U < V, at offset Pos from U.
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

// uTargetSpec describes what a verification expansion must reach: the query
// location, or any node of a route for continuous queries. It is passed by
// value: edgeW, the weight of an edge-resident target's edge, is resolved on
// the first arrival of each expansion (a counted adjacency read, like any
// edge processing).
type uTargetSpec struct {
	loc   Loc
	nodes map[graph.NodeID]bool // route mode when non-nil
	edgeW float64               // negative until resolved
}

func uLocTarget(l Loc) uTargetSpec { return uTargetSpec{loc: l, edgeW: -1} }

func uRouteTarget(route []graph.NodeID) uTargetSpec {
	m := make(map[graph.NodeID]bool, len(route))
	for _, n := range route {
		m[n] = true
	}
	return uTargetSpec{nodes: m}
}

// nodeHit reports whether popping node n reaches the target directly.
func (t uTargetSpec) nodeHit(n graph.NodeID) bool {
	if t.nodes != nil {
		return t.nodes[n]
	}
	return t.loc.IsNode() && t.loc.U == n
}

// seedDirect pushes the target arrival for a walk starting at from on the
// target's own edge — the direct-offset case of Section 5.2 — when within
// limit (inclusive).
func (t uTargetSpec) seedDirect(w *uWalk, from Loc, limit float64) {
	if t.nodes == nil && t.loc.sameEdge(from) {
		if dd := math.Abs(t.loc.Pos - from.Pos); dd <= limit {
			w.pushTarget(dd)
		}
	}
}

// arrive pushes the target arrival through node n, popped at distance d,
// when n is an endpoint of an edge-resident target's edge and the arrival
// lies within limit (inclusive).
func (t *uTargetSpec) arrive(s *Searcher, w *uWalk, n graph.NodeID, d, limit float64, adj *[]graph.Edge) error {
	if t.nodes != nil || t.loc.IsNode() || (n != t.loc.U && n != t.loc.V) {
		return nil
	}
	if t.edgeW < 0 {
		var err error
		if t.edgeW, err = s.edgeWeight(t.loc.U, t.loc.V, adj); err != nil {
			return err
		}
	}
	off := t.loc.Pos
	if n == t.loc.V {
		off = t.edgeW - t.loc.Pos
	}
	if nd := d + off; nd <= limit {
		w.pushTarget(nd)
	}
	return nil
}

const (
	uKindNode uint8 = iota
	uKindPoint
	uKindTarget
)

const (
	uSetCand uint8 = iota
	uSetSite
)

type uEntry struct {
	kind uint8
	set  uint8
	node graph.NodeID
	p    points.PointID
}

// uWalk is a unified traversal: node labels live in a scratch, while point
// and target arrivals ride the same heap as plain entries (de-duplicated at
// pop time by the caller).
type uWalk struct {
	sc   *scratch
	heap pq.Heap[uEntry]
}

func (s *Searcher) newUWalk() *uWalk {
	sc := s.acquire()
	sc.begin()
	return &uWalk{sc: sc}
}

func (s *Searcher) closeUWalk(st *Stats, w *uWalk) {
	st.HeapPushes += int64(w.heap.PushCount)
	st.HeapPops += int64(w.heap.PopCount)
	s.harvest(st, w.sc) // scratch heap unused, but harvest keeps counters tidy
	s.release(w.sc)
}

func (w *uWalk) pushNode(n graph.NodeID, d float64) pq.Handle {
	if w.sc.isClosed(n) {
		return 0
	}
	if w.sc.isSeen(n) && w.sc.dist[n] <= d {
		return 0
	}
	w.sc.seen[n] = w.sc.epoch
	w.sc.dist[n] = d
	return w.heap.Push(uEntry{kind: uKindNode, node: n}, d)
}

func (w *uWalk) pushPoint(set uint8, p points.PointID, d float64) {
	w.heap.Push(uEntry{kind: uKindPoint, set: set, p: p}, d)
}

func (w *uWalk) pushTarget(d float64) {
	w.heap.Push(uEntry{kind: uKindTarget}, d)
}

// pop returns the next entry in distance order, closing node entries and
// skipping stale ones.
func (w *uWalk) pop() (uEntry, float64, bool) {
	//lint:ignore vetrnn/execpoll in-memory drain of stale heap entries; callers poll per popped entry
	for {
		e, d, ok := w.heap.Pop()
		if !ok {
			return uEntry{}, 0, false
		}
		if e.kind == uKindNode {
			if w.sc.isClosed(e.node) {
				continue
			}
			w.sc.close(e.node)
		}
		return e, d, true
	}
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
	return 0, fmt.Errorf("core: no edge (%d,%d)", u, v)
}

// checkULoc validates a query location against the graph.
func (s *Searcher) checkULoc(l Loc, buf *[]graph.Edge) error {
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
	w, err := s.edgeWeight(l.U, l.V, buf)
	if err != nil {
		return err
	}
	if l.Pos < 0 || l.Pos > w {
		return fmt.Errorf("core: offset %v outside edge (%d,%d) of weight %v", l.Pos, l.U, l.V, w)
	}
	return nil
}

// seedFromLoc pushes the expansion seeds of a source location: its
// endpoint nodes with the direct offsets. Points and targets sharing the
// source's edge must be seeded separately by the caller (they are the
// "direct distance" cases of Section 5.2).
func (w *uWalk) seedFromLoc(s *Searcher, l Loc, buf *[]graph.Edge) error {
	if l.IsNode() {
		w.pushNode(l.U, 0)
		return nil
	}
	wt, err := s.edgeWeight(l.U, l.V, buf)
	if err != nil {
		return err
	}
	w.pushNode(l.U, l.Pos)
	w.pushNode(l.V, wt-l.Pos)
	return nil
}

// pushSameEdgePoints pushes a point-arrival entry for every visible point
// of view on l's own edge at its direct distance, bounded by limit
// (inclusive). A node location shares no edge.
func (w *uWalk) pushSameEdgePoints(view points.EdgeView, set uint8, l Loc, limit float64, refs *[]points.EdgePointRef) error {
	if l.IsNode() {
		return nil
	}
	var err error
	*refs, err = view.PointsOn(l.U, l.V, *refs)
	if err != nil {
		return err
	}
	for _, ref := range *refs {
		if dd := math.Abs(ref.Pos - l.Pos); dd <= limit {
			w.pushPoint(set, ref.ID, dd)
		}
	}
	return nil
}

// pushEdgePoints pushes a point-arrival entry for every visible point of
// view on edge (n, e.To), reached through node n popped at distance d and
// bounded by limit (inclusive). It returns the number of points on the
// edge (used by the lazy edge-crossing rule).
func (w *uWalk) pushEdgePoints(view points.EdgeView, set uint8, n graph.NodeID, d float64, e graph.Edge, limit float64, refs *[]points.EdgePointRef) (int, error) {
	var err error
	*refs, err = view.PointsOn(n, e.To, *refs)
	if err != nil {
		return 0, err
	}
	for _, ref := range *refs {
		off := ref.Pos
		if n > e.To {
			off = e.W - ref.Pos
		}
		if nd := d + off; nd <= limit {
			w.pushPoint(set, ref.ID, nd)
		}
	}
	return len(*refs), nil
}

// pushAdjacentPoints is pushEdgePoints over every edge around node n.
func (w *uWalk) pushAdjacentPoints(view points.EdgeView, set uint8, n graph.NodeID, d float64, adj []graph.Edge, limit float64, refs *[]points.EdgePointRef) error {
	for _, e := range adj {
		if _, err := w.pushEdgePoints(view, set, n, d, e, limit, refs); err != nil {
			return err
		}
	}
	return nil
}

// uRangeNN is the unrestricted-range-NN algorithm of Section 5.2: the k
// nearest points of sites with distance strictly smaller than e from
// location from, in ascending distance order.
func (s *Searcher) uRangeNN(st *Stats, sites points.EdgeView, from Loc, k int, e float64, out []PointDist) ([]PointDist, error) {
	st.RangeNN++
	out = out[:0]
	if e <= 0 || k <= 0 {
		return out, nil
	}
	e = strictBound(e)
	// Point arrivals are bounded inclusively; the largest float below e
	// makes that the strict range (a point at distance e exactly is
	// outside it).
	below := math.Nextafter(e, math.Inf(-1))
	w := s.newUWalk()
	defer s.closeUWalk(st, w)
	var adj []graph.Edge
	var refs []points.EdgePointRef
	if err := w.seedFromLoc(s, from, &adj); err != nil {
		return nil, err
	}
	if err := w.pushSameEdgePoints(sites, uSetSite, from, below, &refs); err != nil {
		return nil, err
	}
	done := make(map[points.PointID]bool)
	for {
		ent, d, ok := w.pop()
		if !ok || d >= e {
			break
		}
		switch ent.kind {
		case uKindPoint:
			if done[ent.p] {
				continue
			}
			done[ent.p] = true
			out = append(out, PointDist{P: ent.p, D: d})
			if len(out) >= k {
				return out, nil
			}
		case uKindNode:
			st.NodesScanned++
			if err := s.checkExecStride(st); err != nil {
				return out, err
			}
			var err error
			adj, err = s.g.Adjacency(ent.node, adj)
			if err != nil {
				return nil, err
			}
			if err := w.pushAdjacentPoints(sites, uSetSite, ent.node, d, adj, below, &refs); err != nil {
				return nil, err
			}
			for _, edge := range adj {
				if nd := d + edge.W; nd < e {
					w.pushNode(edge.To, nd)
				}
			}
		}
	}
	return out, nil
}

// ULocDistance computes the exact network distance between two locations
// (Section 5.2's distance definition), returning +Inf when disconnected.
// Exposed for tooling and examples; the query algorithms never need it.
func (s *Searcher) ULocDistance(a, b Loc) (float64, error) {
	var st Stats
	var adj []graph.Edge
	if err := s.checkULoc(a, &adj); err != nil {
		return 0, err
	}
	if err := s.checkULoc(b, &adj); err != nil {
		return 0, err
	}
	if a == b {
		return 0, nil
	}
	w := s.newUWalk()
	defer s.closeUWalk(&st, w)
	if err := w.seedFromLoc(s, a, &adj); err != nil {
		return 0, err
	}
	target := uLocTarget(b)
	target.seedDirect(w, a, math.Inf(1))
	for {
		ent, d, ok := w.pop()
		if !ok {
			return math.Inf(1), nil
		}
		switch ent.kind {
		case uKindTarget:
			return d, nil
		case uKindNode:
			n := ent.node
			st.NodesExpanded++
			if err := s.checkExec(&st); err != nil {
				return 0, err
			}
			if target.nodeHit(n) {
				return d, nil
			}
			if err := target.arrive(s, w, n, d, math.Inf(1), &adj); err != nil {
				return 0, err
			}
			var err error
			adj, err = s.g.Adjacency(n, adj)
			if err != nil {
				return 0, err
			}
			for _, edge := range adj {
				w.pushNode(edge.To, d+edge.W)
			}
		}
	}
}

// uVerify checks whether the target is met before k points of sites are
// found strictly closer to the candidate at location from. self is skipped
// during counting (monochromatic queries); ub bounds the expansion and must
// upper-bound the candidate-to-target distance (+Inf for oracle use). A
// non-nil lz applies the lazy pruning side effects to lz's main walk, as in
// verify.
func (s *Searcher) uVerify(st *Stats, sites points.EdgeView, self points.PointID, from Loc, target uTargetSpec, k int, ub float64, lz *lazyPrune[uEntry]) (bool, error) {
	st.Verifications++
	ub, ubStrict := upperBound(ub), strictBound(ub)
	w := s.newUWalk()
	defer s.closeUWalk(st, w)
	var adj []graph.Edge
	var refs []points.EdgePointRef
	if err := w.seedFromLoc(s, from, &adj); err != nil {
		return false, err
	}
	if err := w.pushSameEdgePoints(sites, uSetSite, from, ub, &refs); err != nil {
		return false, err
	}
	target.seedDirect(w, from, ub)

	done := make(map[points.PointID]bool)
	strictCount, sameCount := 0, 0
	lastDist := 0.0
	for {
		ent, d, ok := w.pop()
		if !ok {
			return false, nil
		}
		if d > lastDist {
			strictCount += sameCount
			sameCount = 0
			lastDist = d
		}
		if strictCount >= k {
			return false, nil
		}
		switch ent.kind {
		case uKindTarget:
			return true, nil
		case uKindPoint:
			if done[ent.p] {
				continue
			}
			done[ent.p] = true
			if ent.p != self {
				sameCount++
			}
		case uKindNode:
			n := ent.node
			st.NodesScanned++
			if err := s.checkExecStride(st); err != nil {
				return false, err
			}
			if target.nodeHit(n) {
				return true, nil
			}
			if lz != nil && lz.visit(n, d, ubStrict, k) {
				lz.unqueue(n)
			}
			if err := target.arrive(s, w, n, d, ub, &adj); err != nil {
				return false, err
			}
			var err error
			adj, err = s.g.Adjacency(n, adj)
			if err != nil {
				return false, err
			}
			if err := w.pushAdjacentPoints(sites, uSetSite, n, d, adj, ub, &refs); err != nil {
				return false, err
			}
			for _, edge := range adj {
				if nd := d + edge.W; nd <= ub {
					w.pushNode(edge.To, nd)
				}
			}
		}
	}
}

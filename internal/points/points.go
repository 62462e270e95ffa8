// Package points models the data sets P (and Q for bichromatic queries) of
// Yiu et al. (TKDE'06). In restricted networks every data point resides on a
// graph node (at most one point per node per set); in unrestricted networks
// points live on edges as triplets <n_i, n_j, pos> (Section 5.2).
//
// Query algorithms read points through the NodeView / EdgeView interfaces so
// that a query point sampled from the data set can be excluded (the paper's
// workloads place queries at data point locations, modelling a newly arrived
// peer or facility), and so that edge-resident points can be served either
// from memory or from an I/O-accounted paged file (Fig 14b's storage
// scheme).
package points

import (
	"fmt"
	"sort"

	"graphrnn/internal/graph"
)

// PointID identifies a data point within its set.
type PointID int32

// NoPoint marks the absence of a point.
const NoPoint PointID = -1

// NodeView is the read interface for node-resident (restricted) point sets.
type NodeView interface {
	// PointAt returns the point residing on node n, if any.
	PointAt(n graph.NodeID) (PointID, bool)
	// NodeOf returns the node hosting point p; ok is false when p does not
	// exist (or is hidden by an exclusion view).
	NodeOf(p PointID) (graph.NodeID, bool)
	// Len returns the number of visible points.
	Len() int
	// Points returns the visible point ids in ascending order.
	Points() []PointID
}

// NodeSet is a mutable node-resident point set.
type NodeSet struct {
	byNode []PointID
	nodes  []graph.NodeID // PointID -> node, -1 when deleted
	live   int
}

// NewNodeSet creates an empty point set over a graph of numNodes nodes.
func NewNodeSet(numNodes int) *NodeSet {
	byNode := make([]PointID, numNodes)
	for i := range byNode {
		byNode[i] = NoPoint
	}
	return &NodeSet{byNode: byNode}
}

// Place puts a new point on node n.
func (s *NodeSet) Place(n graph.NodeID) (PointID, error) {
	if n < 0 || int(n) >= len(s.byNode) {
		return NoPoint, fmt.Errorf("points: node %d out of range [0,%d)", n, len(s.byNode))
	}
	if s.byNode[n] != NoPoint {
		return NoPoint, fmt.Errorf("points: node %d already hosts point %d", n, s.byNode[n])
	}
	p := PointID(len(s.nodes))
	s.nodes = append(s.nodes, n)
	s.byNode[n] = p
	s.live++
	return p, nil
}

// Delete removes point p from the set.
func (s *NodeSet) Delete(p PointID) error {
	if p < 0 || int(p) >= len(s.nodes) || s.nodes[p] < 0 {
		return fmt.Errorf("points: point %d does not exist", p)
	}
	s.byNode[s.nodes[p]] = NoPoint
	s.nodes[p] = -1
	s.live--
	return nil
}

// Restore re-creates the deleted point p on node n under its original id —
// the rollback path of materialization maintenance, which must undo a
// Delete without renumbering the point.
func (s *NodeSet) Restore(p PointID, n graph.NodeID) error {
	if n < 0 || int(n) >= len(s.byNode) {
		return fmt.Errorf("points: node %d out of range [0,%d)", n, len(s.byNode))
	}
	if p < 0 || int(p) >= len(s.nodes) || s.nodes[p] >= 0 {
		return fmt.Errorf("points: point %d is not a deleted point", p)
	}
	if s.byNode[n] != NoPoint {
		return fmt.Errorf("points: node %d already hosts point %d", n, s.byNode[n])
	}
	s.nodes[p] = n
	s.byNode[n] = p
	s.live++
	return nil
}

// PointAt implements NodeView.
func (s *NodeSet) PointAt(n graph.NodeID) (PointID, bool) {
	if n < 0 || int(n) >= len(s.byNode) {
		return NoPoint, false
	}
	p := s.byNode[n]
	return p, p != NoPoint
}

// NodeOf implements NodeView.
func (s *NodeSet) NodeOf(p PointID) (graph.NodeID, bool) {
	if p < 0 || int(p) >= len(s.nodes) || s.nodes[p] < 0 {
		return 0, false
	}
	return s.nodes[p], true
}

// Len implements NodeView.
func (s *NodeSet) Len() int { return s.live }

// Table returns a copy of the dense PointID -> node table, -1 for deleted
// ids; its length is the next fresh id.
func (s *NodeSet) Table() []graph.NodeID { return append([]graph.NodeID(nil), s.nodes...) }

// Points returns the ids of all live points in ascending order.
func (s *NodeSet) Points() []PointID {
	out := make([]PointID, 0, s.live)
	for p, n := range s.nodes {
		if n >= 0 {
			out = append(out, PointID(p))
		}
	}
	return out
}

// HiddenPointView is implemented by views that hide exactly one point of an
// underlying set; indexes that track the full set (hub-label) use it to
// recover the hidden id in O(1) instead of scanning.
type HiddenPointView interface {
	NodeView
	// HiddenPoint returns the id the view hides.
	HiddenPoint() PointID
}

// excludeNode hides one point of a NodeSet. It holds the concrete set, so
// a lookup through the view is one dynamic call, not two.
type excludeNode struct {
	set    *NodeSet
	hidden PointID
}

// HiddenPoint implements HiddenPointView.
func (e excludeNode) HiddenPoint() PointID { return e.hidden }

// ExcludeNode returns a view of s with point hidden removed; hiding NoPoint
// returns s itself.
func ExcludeNode(s *NodeSet, hidden PointID) NodeView {
	if hidden == NoPoint {
		return s
	}
	return excludeNode{set: s, hidden: hidden}
}

func (e excludeNode) PointAt(n graph.NodeID) (PointID, bool) {
	p, ok := e.set.PointAt(n)
	if !ok || p == e.hidden {
		return NoPoint, false
	}
	return p, true
}

func (e excludeNode) NodeOf(p PointID) (graph.NodeID, bool) {
	if p == e.hidden {
		return 0, false
	}
	return e.set.NodeOf(p)
}

func (e excludeNode) Len() int {
	n := e.set.Len()
	if _, ok := e.set.NodeOf(e.hidden); ok {
		n-- // only a point the set has is hidden from the count
	}
	return n
}

func (e excludeNode) Points() []PointID {
	all := e.set.Points()
	out := make([]PointID, 0, len(all))
	for _, p := range all {
		if p != e.hidden {
			out = append(out, p)
		}
	}
	return out
}

// EdgePoint is the location of an edge-resident point: the canonical edge
// (U < V) and the offset Pos from U along the edge (Pos <= weight), a count
// of the graph's quantum like the weight.
type EdgePoint struct {
	U, V graph.NodeID
	Pos  graph.Dist
}

// EdgePointRef pairs a point id with its offset from the canonical endpoint
// U; PointsOn returns these sorted by Pos.
type EdgePointRef struct {
	ID  PointID
	Pos graph.Dist
}

// EdgeView is the read interface for edge-resident (unrestricted) point
// sets. Implementations may perform I/O (PagedEdgeSet) and therefore return
// errors.
type EdgeView interface {
	// PointsOn appends the points residing on edge (u,v) to buf, sorted by
	// offset from min(u,v).
	PointsOn(u, v graph.NodeID, buf []EdgePointRef) ([]EdgePointRef, error)
	// Loc returns the location of point p.
	Loc(p PointID) (EdgePoint, bool)
	// Len returns the number of visible points.
	Len() int
	// Points returns the visible point ids in ascending order.
	Points() []PointID
}

type edgeKey struct {
	u, v graph.NodeID
}

func canonKey(u, v graph.NodeID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// EdgeSet is a mutable in-memory edge-resident point set.
type EdgeSet struct {
	pts    []EdgePoint // PointID -> location; U == -1 when deleted
	byEdge map[edgeKey][]EdgePointRef
	live   int
}

// NewEdgeSet creates an empty edge point set.
func NewEdgeSet() *EdgeSet {
	return &EdgeSet{byEdge: make(map[edgeKey][]EdgePointRef)}
}

// Place puts a new point on edge (u,v) at offset pos from min(u,v). The
// caller is responsible for pos <= weight(u,v).
func (s *EdgeSet) Place(u, v graph.NodeID, pos graph.Dist) (PointID, error) {
	if u == v {
		return NoPoint, fmt.Errorf("points: degenerate edge (%d,%d)", u, v)
	}
	if u > v {
		u, v = v, u
	}
	p := PointID(len(s.pts))
	s.pts = append(s.pts, EdgePoint{U: u, V: v, Pos: pos})
	k := edgeKey{u, v}
	refs := append(s.byEdge[k], EdgePointRef{ID: p, Pos: pos})
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Pos != refs[j].Pos {
			return refs[i].Pos < refs[j].Pos
		}
		return refs[i].ID < refs[j].ID
	})
	s.byEdge[k] = refs
	s.live++
	return p, nil
}

// Delete removes point p.
func (s *EdgeSet) Delete(p PointID) error {
	if p < 0 || int(p) >= len(s.pts) || s.pts[p].U < 0 {
		return fmt.Errorf("points: point %d does not exist", p)
	}
	loc := s.pts[p]
	k := edgeKey{loc.U, loc.V}
	refs := s.byEdge[k]
	for i, r := range refs {
		if r.ID == p {
			s.byEdge[k] = append(refs[:i], refs[i+1:]...)
			break
		}
	}
	if len(s.byEdge[k]) == 0 {
		delete(s.byEdge, k)
	}
	s.pts[p].U = -1
	s.live--
	return nil
}

// Restore re-creates the deleted point p at its original location under its
// original id — the rollback path of materialization maintenance.
func (s *EdgeSet) Restore(p PointID, u, v graph.NodeID, pos graph.Dist) error {
	if u == v || u < 0 || v < 0 {
		return fmt.Errorf("points: bad location (%d,%d)@%v", u, v, pos)
	}
	if p < 0 || int(p) >= len(s.pts) || s.pts[p].U >= 0 {
		return fmt.Errorf("points: point %d is not a deleted point", p)
	}
	if u > v {
		u, v = v, u
	}
	s.pts[p] = EdgePoint{U: u, V: v, Pos: pos}
	k := edgeKey{u, v}
	refs := append(s.byEdge[k], EdgePointRef{ID: p, Pos: pos})
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Pos != refs[j].Pos {
			return refs[i].Pos < refs[j].Pos
		}
		return refs[i].ID < refs[j].ID
	})
	s.byEdge[k] = refs
	s.live++
	return nil
}

// PointsOn implements EdgeView.
func (s *EdgeSet) PointsOn(u, v graph.NodeID, buf []EdgePointRef) ([]EdgePointRef, error) {
	buf = buf[:0]
	return append(buf, s.byEdge[canonKey(u, v)]...), nil
}

// Loc implements EdgeView.
func (s *EdgeSet) Loc(p PointID) (EdgePoint, bool) {
	if p < 0 || int(p) >= len(s.pts) || s.pts[p].U < 0 {
		return EdgePoint{}, false
	}
	return s.pts[p], true
}

// Len implements EdgeView.
func (s *EdgeSet) Len() int { return s.live }

// Table returns a copy of the dense PointID -> location table, U < 0 for
// deleted ids; its length is the next fresh id.
func (s *EdgeSet) Table() []EdgePoint { return append([]EdgePoint(nil), s.pts...) }

// Points returns the ids of all live points in ascending order.
func (s *EdgeSet) Points() []PointID {
	out := make([]PointID, 0, s.live)
	for p := range s.pts {
		if s.pts[p].U >= 0 {
			out = append(out, PointID(p))
		}
	}
	return out
}

// excludeEdge hides one point from an EdgeView.
type excludeEdge struct {
	EdgeView
	hidden PointID
}

// ExcludeEdge returns a view of v with point hidden removed; hiding NoPoint
// returns v unchanged.
func ExcludeEdge(v EdgeView, hidden PointID) EdgeView {
	if hidden == NoPoint {
		return v
	}
	return excludeEdge{EdgeView: v, hidden: hidden}
}

func (e excludeEdge) PointsOn(u, v graph.NodeID, buf []EdgePointRef) ([]EdgePointRef, error) {
	refs, err := e.EdgeView.PointsOn(u, v, buf)
	if err != nil {
		return nil, err
	}
	out := refs[:0]
	for _, r := range refs {
		if r.ID != e.hidden {
			out = append(out, r)
		}
	}
	return out, nil
}

func (e excludeEdge) Loc(p PointID) (EdgePoint, bool) {
	if p == e.hidden {
		return EdgePoint{}, false
	}
	return e.EdgeView.Loc(p)
}

func (e excludeEdge) Len() int {
	n := e.EdgeView.Len()
	if _, ok := e.EdgeView.Loc(e.hidden); ok {
		n--
	}
	return n
}

func (e excludeEdge) Points() []PointID {
	all := e.EdgeView.Points()
	out := make([]PointID, 0, len(all))
	for _, p := range all {
		if p != e.hidden {
			out = append(out, p)
		}
	}
	return out
}

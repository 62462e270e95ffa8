package graphrnn

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"graphrnn/internal/core"
	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// ErrMissingEdge reports a reference to an edge the graph does not
// contain — placing a point on a nonexistent edge, or maintaining a point
// whose recorded edge is not in the (immutable) graph, which means the
// point set belongs to a different graph. Matched with errors.Is.
var ErrMissingEdge = core.ErrNoEdge

// ErrSubstrateDetached accompanies a committed Insert or Remove: the point
// set and its materializations changed, but a hub-label index over the set
// could not follow — its in-memory repair hit a label read error — and was
// detached from the set: the planner never picks it again, an explicit
// hint to it reports a foreign point set, and it never serves a stale
// answer. Rebuild it over the set. Matched with errors.Is.
var ErrSubstrateDetached = errors.New("substrate detached from its point set")

// trackedSet is the residency-blind half of NodePoints and EdgePoints: the
// engine the set queries through, the set itself in its one residency, and
// the substrates built or opened over it (materializations are built,
// hub-label indexes built or reopened). The set is the unit of mutation:
// Insert and Remove are the one maintenance path and repair every
// registered substrate, so no caller can mutate behind one.
type trackedSet struct {
	db *DB
	ns *points.NodeSet // exactly one of ns and es is set
	es *points.EdgeSet
	// mats and hubs hold the live substrates over this set in registration
	// order; the planner picks the last of each ("last built wins", per
	// set). Each slice is an immutable snapshot replaced copy-on-write, so
	// a query plans with one atomic load while a build registers.
	mats atomic.Pointer[[]*Materialization]
	hubs atomic.Pointer[[]*HubLabelIndex]
}

// substrates returns the current snapshot of a registry slot.
func substrates[T any](slot *atomic.Pointer[[]*T]) []*T {
	if l := slot.Load(); l != nil {
		return *l
	}
	return nil
}

// register adds x to a registry slot (keep) or removes it from the slot.
func register[T any](slot *atomic.Pointer[[]*T], x *T, keep bool) {
	for {
		old := slot.Load()
		var next []*T
		if old != nil {
			next = slices.DeleteFunc(slices.Clone(*old), func(y *T) bool { return y == x })
		}
		if keep {
			next = append(next, x)
		}
		if slot.CompareAndSwap(old, &next) {
			return
		}
	}
}

// latest returns the substrate of a slot the planner considers: the most
// recently registered, nil when there is none.
func latest[T any](slot *atomic.Pointer[[]*T]) *T {
	if l := substrates(slot); len(l) > 0 {
		return l[len(l)-1]
	}
	return nil
}

// view returns the full set in the engine's terms.
func (s *trackedSet) view() core.PointSet {
	if s.ns != nil {
		return core.PointSet{Node: s.ns}
	}
	return core.PointSet{Edge: s.es}
}

// loc returns where point p resides.
func (s *trackedSet) loc(p PointID) (core.Loc, bool) {
	if s.ns != nil {
		n, ok := s.ns.NodeOf(points.PointID(p))
		return core.NodeLoc(n), ok
	}
	ep, ok := s.es.Loc(points.PointID(p))
	return core.PointLoc(ep), ok
}

// locationOf returns where point p resides, as the API reports it.
func (s *trackedSet) locationOf(p PointID) (Location, bool) {
	l, ok := s.loc(p)
	return Location{U: NodeID(l.U), V: NodeID(l.V), Pos: s.db.graph.g.Float(l.Pos)}, ok
}

// Len returns the number of points.
func (s *trackedSet) Len() int {
	if s.ns != nil {
		return s.ns.Len()
	}
	return s.es.Len()
}

// Points returns all point ids in ascending order.
func (s *trackedSet) Points() []PointID {
	if s.ns != nil {
		return fromPointIDs(s.ns.Points())
	}
	return fromPointIDs(s.es.Points())
}

// setOp is the point-set half of one maintenance operation: what a
// rollback must undo.
type setOp struct {
	insert bool
	p      PointID
	loc    core.Loc // where p resides (insert) or resided (delete)
}

// place performs the set half of an insert at the validated location at,
// returning the operation that records it.
func (s *trackedSet) place(at Location) (*setOp, error) {
	var p points.PointID
	var err error
	var loc core.Loc
	if s.ns != nil {
		if at.U != at.V || at.Pos != 0 {
			return nil, fmt.Errorf("graphrnn: node-resident point sets take node locations (NodeLocation); got edge location (%d,%d)@%v",
				at.U, at.V, at.Pos)
		}
		loc = core.NodeLoc(graph.NodeID(at.U))
		p, err = s.ns.Place(loc.U)
	} else {
		if err := s.db.undirectedOnly("edge-resident point sets"); err != nil {
			return nil, err
		}
		at = EdgeLocation(at.U, at.V, at.Pos)
		w, ok := s.db.graph.EdgeWeight(at.U, at.V)
		if !ok {
			return nil, fmt.Errorf("graphrnn: no edge (%d,%d): %w", at.U, at.V, ErrMissingEdge)
		}
		if !(at.Pos >= 0 && at.Pos <= w) { // NaN fails both
			return nil, fmt.Errorf("graphrnn: offset %v outside edge (%d,%d) of weight %v", at.Pos, at.U, at.V, w)
		}
		loc = s.db.graph.loc(at)
		p, err = s.es.Place(loc.U, loc.V, loc.Pos)
	}
	if err != nil {
		return nil, err
	}
	return &setOp{insert: true, p: PointID(p), loc: loc}, nil
}

// drop performs the set half of a delete.
func (s *trackedSet) drop(p PointID) error {
	if s.ns != nil {
		return s.ns.Delete(points.PointID(p))
	}
	return s.es.Delete(points.PointID(p))
}

// undo reverses the set half of op. It is idempotent: a Recover that runs
// after an inline rollback already restored the set changes nothing.
func (s *trackedSet) undo(op *setOp) error {
	switch _, present := s.loc(op.p); {
	case op.insert && present:
		return s.drop(op.p)
	case !op.insert && !present && s.ns != nil:
		return s.ns.Restore(points.PointID(op.p), graph.NodeID(op.loc.U))
	case !op.insert && !present:
		return s.es.Restore(points.PointID(op.p), graph.NodeID(op.loc.U), graph.NodeID(op.loc.V), op.loc.Pos)
	}
	return nil
}

// Insert places a new point at location at — a node (NodeLocation) of a
// node-resident set, a position on an existing edge (EdgeLocation) of an
// edge-resident one, its offset rounded to the graph's quantum
// (GraphBuilder) — and repairs every substrate built or opened over the
// set. Insert and Remove are the one maintenance path of the library and
// share one contract:
//
//   - The operation runs under ctx and opt like a query. Abandoned for any
//     reason — cancellation, a deadline, an exhausted Budget (the typed
//     execution errors; match with IsExecErr) or an I/O fault — it is
//     rolled back from the lists' before-images before the error returns:
//     the set and every list are bit-identical to the state before the
//     call, the returned id is -1, Stats carry the work done up to the
//     abandonment, and every substrate stays queryable. An operation
//     expired or canceled at its start touches nothing and reports zero
//     Stats. Deadlines and budgets are therefore a routine control for
//     maintenance traffic, not an emergency-only guardrail.
//   - Materializations are repaired first, each inside its repair
//     operation (Materialization documents RepairState and Recover for a
//     rollback that itself fails); hub-label indexes follow in memory. An
//     index that cannot follow a committed operation is detached from the
//     set, and the call returns the committed id beside an error wrapping
//     ErrSubstrateDetached.
//   - Stats sum the work over every substrate repaired.
//
// Like every mutation, the call requires that no query runs against the
// set or its substrates. Place is Insert under a background context.
func (s *trackedSet) Insert(ctx context.Context, at Location, opt *QueryOptions) (PointID, Stats, error) {
	ec, cancel, err := s.startOp(ctx, opt)
	if err != nil {
		return -1, Stats{}, err
	}
	defer cancel()
	op, err := s.place(at)
	if err != nil {
		return -1, Stats{}, err
	}
	st, err := s.repair(ec, op)
	if err != nil && !errors.Is(err, ErrSubstrateDetached) {
		return -1, st, err
	}
	return op.p, st, err
}

// Remove deletes point p and repairs every substrate built or opened over
// the set; Insert documents the shared contract (an abandoned Remove leaves
// the point in place). Delete is Remove under a background context.
func (s *trackedSet) Remove(ctx context.Context, p PointID, opt *QueryOptions) (Stats, error) {
	ec, cancel, err := s.startOp(ctx, opt)
	if err != nil {
		return Stats{}, err
	}
	defer cancel()
	loc, ok := s.loc(p)
	if !ok {
		return Stats{}, fmt.Errorf("graphrnn: point %d does not exist", p)
	}
	if err := s.drop(p); err != nil {
		return Stats{}, err
	}
	return s.repair(ec, &setOp{p: p, loc: loc})
}

// startOp opens one maintenance operation: the execution context of ctx and
// opt (failing upfront, typed, when already expired or canceled), with
// every materialization recovered from an operation a failed rollback left
// pending ("replay to a consistent state on next use").
func (s *trackedSet) startOp(ctx context.Context, opt *QueryOptions) (*exec.Ctx, func(), error) {
	ec, cancel, err := s.db.newExec(ctx, opt)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range substrates(&s.mats) {
		if _, err := m.Recover(); err != nil {
			cancel()
			return nil, nil, err
		}
	}
	return ec, cancel, nil
}

// repair carries the set mutation op, already applied, through every
// substrate. Materializations go first, each inside its repair operation
// and all repaired before any commits, so an abandonment or failure up to
// that point rolls every list and the set back. The commit is the
// operation's commit point; a hub-label index that cannot follow it is
// detached instead of left stale.
func (s *trackedSet) repair(ec *exec.Ctx, op *setOp) (Stats, error) {
	var st Stats
	mats := substrates(&s.mats)
	for i, m := range mats {
		if err := m.begin(op); err != nil {
			return st, s.abort(mats[:i], op, err)
		}
		mst, err := m.repairLists(ec, op)
		st.Add(mst)
		if err != nil {
			return st, s.abort(mats[:i+1], op, err)
		}
	}
	for _, m := range mats {
		m.commit()
	}
	var detached error
	for _, h := range substrates(&s.hubs) {
		hst, err := h.repair(op)
		st.Add(hst)
		if err != nil {
			h.detach()
			detached = fmt.Errorf("graphrnn: hub-label index detached, its repair failed (%v): %w", err, ErrSubstrateDetached)
		}
	}
	return st, detached
}

// abort rolls an abandoned operation back inline — the lists of every
// materialization that began it from their before-images, then the set
// mutation — and returns opErr (the typed exec error, or whatever failed
// the repair). If a rollback itself fails — a second I/O fault — that
// materialization stays pending: RepairState reports it and Recover
// retries.
func (s *trackedSet) abort(begun []*Materialization, op *setOp, opErr error) error {
	for _, m := range begun {
		if rbErr := m.rollbackPending(); rbErr != nil {
			opErr = fmt.Errorf("graphrnn: rollback failed (%v); call Recover before further use: %w", rbErr, opErr)
		}
	}
	if err := s.undo(op); err != nil {
		return fmt.Errorf("graphrnn: point set rollback failed (%v): %w", err, opErr)
	}
	return opErr
}

// NodePointsView is a read-only view of a node-resident point set, possibly
// hiding one point (the query's own location in the paper's workloads).
type NodePointsView struct {
	v   points.NodeView
	set *trackedSet
}

// NodePoints is a mutable set of data points residing on graph nodes (the
// "restricted network" model): at most one point per node per set. Mutate
// it through Insert / Remove (or their background-context spellings Place /
// Delete): every substrate built over the set is repaired with it.
type NodePoints struct{ trackedSet }

// NewNodePoints creates an empty node-resident point set for this DB's
// graph.
func (db *DB) NewNodePoints() *NodePoints {
	return newNodePoints(db, points.NewNodeSet(db.store.NumNodes()))
}

func newNodePoints(db *DB, s *points.NodeSet) *NodePoints {
	return &NodePoints{trackedSet{db: db, ns: s}}
}

// Place puts a new point on node n and returns its id: Insert under a
// background context.
func (ps *NodePoints) Place(n NodeID) (PointID, error) {
	p, _, err := ps.Insert(context.Background(), NodeLocation(n), nil)
	return p, err
}

// Delete removes point p: Remove under a background context.
func (ps *NodePoints) Delete(p PointID) error {
	_, err := ps.Remove(context.Background(), p, nil)
	return err
}

// NodeOf returns the node hosting p.
func (ps *NodePoints) NodeOf(p PointID) (NodeID, bool) {
	n, ok := ps.ns.NodeOf(points.PointID(p))
	return NodeID(n), ok
}

// PointAt returns the point on node n, if any.
func (ps *NodePoints) PointAt(n NodeID) (PointID, bool) {
	p, ok := ps.ns.PointAt(graph.NodeID(n))
	return PointID(p), ok
}

// View returns the full read-only view.
func (ps *NodePoints) View() NodePointsView {
	return NodePointsView{v: ps.ns, set: &ps.trackedSet}
}

// Excluding returns a view hiding point p — the convention for queries
// issued from a data point's own location.
func (ps *NodePoints) Excluding(p PointID) NodePointsView {
	return NodePointsView{v: points.ExcludeNode(ps.ns, points.PointID(p)), set: &ps.trackedSet}
}

// EdgePointsView is a read-only view of an edge-resident point set.
type EdgePointsView struct {
	v   points.EdgeView
	set *trackedSet // nil for views of a paged snapshot
}

// EdgePoints is a mutable set of data points residing on graph edges (the
// "unrestricted network" model of Section 5.2). Mutate it through Insert /
// Remove (or Place / Delete), like NodePoints.
type EdgePoints struct{ trackedSet }

// NewEdgePoints creates an empty edge-resident point set.
func (db *DB) NewEdgePoints() *EdgePoints {
	return newEdgePoints(db, points.NewEdgeSet(db.graph.g.LogQuantum()))
}

func newEdgePoints(db *DB, s *points.EdgeSet) *EdgePoints {
	return &EdgePoints{trackedSet{db: db, es: s}}
}

// Place puts a new point on edge (u,v) at offset pos from min(u,v): Insert
// under a background context. The edge must exist and pos must lie within
// its weight; it is stored rounded to the graph's quantum (GraphBuilder).
func (ps *EdgePoints) Place(u, v NodeID, pos float64) (PointID, error) {
	p, _, err := ps.Insert(context.Background(), EdgeLocation(u, v, pos), nil)
	return p, err
}

// Delete removes point p: Remove under a background context.
func (ps *EdgePoints) Delete(p PointID) error {
	_, err := ps.Remove(context.Background(), p, nil)
	return err
}

// LocationOf returns the location of point p.
func (ps *EdgePoints) LocationOf(p PointID) (Location, bool) { return ps.locationOf(p) }

// View returns the full read-only view.
func (ps *EdgePoints) View() EdgePointsView {
	return EdgePointsView{v: ps.es, set: &ps.trackedSet}
}

// Excluding returns a view hiding point p.
func (ps *EdgePoints) Excluding(p PointID) EdgePointsView {
	return EdgePointsView{v: points.ExcludeEdge(ps.es, points.PointID(p)), set: &ps.trackedSet}
}

// PagedEdgePoints is an immutable disk-resident snapshot of an EdgePoints
// set (Fig 14b's storage scheme): point lookups per edge perform counted
// I/O through an LRU buffer.
type PagedEdgePoints struct {
	s *points.PagedEdgeSet
}

// Paged snapshots the point set into a 4 KB-page file attached to the DB's
// shared buffer pool (tenant "edgepoints") with bufferPages as its frame
// quota.
func (ps *EdgePoints) Paged(bufferPages int) (*PagedEdgePoints, error) {
	quota := bufferPages
	if quota <= 0 {
		quota = storage.NoCache // 0 keeps its historical meaning: every access counted
	}
	file := storage.NewMemFile(storage.DefaultPageSize)
	bm := ps.db.pool.attach("edgepoints", file, quota)
	p, err := points.NewPagedEdgeSetBuffer(ps.es, file, bm)
	if err != nil {
		_ = bm.Detach()
		return nil, err
	}
	return &PagedEdgePoints{s: p}, nil
}

// Close detaches the snapshot's tenant from the DB's shared buffer pool,
// releasing its frames and any capacity it contributed. The snapshot must
// not be used afterwards; Close is idempotent.
func (ps *PagedEdgePoints) Close() error { return ps.s.Close() }

// View returns the full read-only view.
func (ps *PagedEdgePoints) View() EdgePointsView { return EdgePointsView{v: ps.s} }

// Excluding returns a view hiding point p.
func (ps *PagedEdgePoints) Excluding(p PointID) EdgePointsView {
	return EdgePointsView{v: points.ExcludeEdge(ps.s, points.PointID(p))}
}

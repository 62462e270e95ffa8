package graphrnn

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"graphrnn/internal/graph"
	"graphrnn/internal/oracle"
	"graphrnn/internal/points"
)

// maintEnv is one point set of the maintenance tests with the substrates a
// configuration asks for; exactly one of node and edge is set.
type maintEnv struct {
	db   *DB
	node *NodePoints
	edge *EdgePoints
	mat  *Materialization
	hub  *HubLabelIndex
}

const maintMaxK = 2

func newMaintEnv(t *testing.T, edge, withMat, withHub bool) *maintEnv {
	t.Helper()
	g, err := GenerateGrid(401, 144, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := &maintEnv{}
	if e.db, err = Open(g, nil); err != nil {
		t.Fatal(err)
	}
	if edge {
		if e.edge, err = e.db.PlaceRandomEdgePoints(402, 12); err != nil {
			t.Fatal(err)
		}
		if withMat {
			e.mat, err = e.db.MaterializeEdgePoints(e.edge, maintMaxK, nil)
		}
	} else {
		if e.node, err = e.db.PlaceRandomNodePoints(403, 12); err != nil {
			t.Fatal(err)
		}
		if withMat {
			e.mat, err = e.db.MaterializeNodePoints(e.node, maintMaxK, nil)
		}
		if withHub && err == nil {
			e.hub, err = e.db.BuildHubLabelIndex(e.node, maintMaxK, nil)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if e.hub != nil {
			e.hub.Close()
		}
		if e.mat != nil {
			e.mat.Close()
		}
	})
	return e
}

func (e *maintEnv) set() *trackedSet {
	if e.node != nil {
		return &e.node.trackedSet
	}
	return &e.edge.trackedSet
}

func (e *maintEnv) points() PointSet {
	if e.node != nil {
		return e.node
	}
	return e.edge
}

// freeSpot returns an insert location the set does not occupy yet: a free
// node, or an edge position (always free: edges host any number of points).
func (e *maintEnv) freeSpot(t *testing.T, i int) Location {
	t.Helper()
	if e.edge != nil {
		u, v, w := firstEdge(e.db.Graph())
		return EdgeLocation(u, v, w*float64(i%9+1)/10)
	}
	for n := (i * 31) % e.db.Graph().NumNodes(); n < e.db.Graph().NumNodes(); n++ {
		if _, taken := e.node.PointAt(NodeID(n)); !taken {
			return NodeLocation(NodeID(n))
		}
	}
	t.Fatal("no free node")
	return Location{}
}

// snapshot records the set as id -> location.
func (e *maintEnv) snapshot() map[PointID]Location {
	out := make(map[PointID]Location)
	for _, p := range e.set().Points() {
		out[p], _ = e.set().locationOf(p)
	}
	return out
}

// mustBeExact requires every substrate of the set — hinted strictly, and
// whatever the planner picks — to answer like the oracle (from every
// stride-th node only, if stride > 1), and the lists to be committed.
func (e *maintEnv) mustBeExact(t *testing.T, when string, stride int) {
	t.Helper()
	algos := map[string]Algorithm{"auto": Auto()}
	if e.mat != nil {
		if state := e.mat.RepairState(); state != RepairClean {
			t.Fatalf("%s: RepairState = %v, want clean", when, state)
		}
		algos["eager-M"] = EagerM(e.mat)
	}
	if e.hub != nil {
		algos["hub-label"] = HubLabel(e.hub)
	}
	CheckAgreement(t, Agreement{Points: e.points(), Algos: algos, Ks: oracle.Depths(maintMaxK), NodeStride: stride})
}

// TestMaintenanceContract pins the one contract of the one maintenance
// path (documented on Insert): {insert node, insert edge, delete} x {how
// the operation is bounded} x {which substrates track the set}.
func TestMaintenanceContract(t *testing.T) {
	type substrates struct {
		name     string
		mat, hub bool
	}
	all := []substrates{{"mat", true, false}, {"hub", false, true}, {"mat+hub", true, true}, {"none", false, false}}
	ops := []struct {
		name         string
		edge, insert bool
		over         []substrates
	}{
		{"insert-node", false, true, all},
		{"insert-edge", true, true, []substrates{all[0], all[3]}}, // hub labels index node-resident sets only
		{"delete-node", false, false, all},
		{"delete-edge", true, false, []substrates{all[0], all[3]}},
	}
	// bound prepares the context and options of one operation; abandons
	// says whether the operation must (1), may (0) or must not (-1) be
	// abandoned, given whether a materialization — the substrate whose
	// repair polls the context — tracks the set; work says whether an
	// abandoned operation must (1), may (0) or must not (-1) report work.
	bounds := []struct {
		name     string
		bound    func() (context.Context, context.CancelFunc, *QueryOptions)
		want     error
		abandons func(mat bool) int
		work     int
	}{
		{"canceled-at-start", func() (context.Context, context.CancelFunc, *QueryOptions) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, cancel, nil
		}, ErrCanceled, func(bool) int { return 1 }, -1},
		{"deadline-at-start", func() (context.Context, context.CancelFunc, *QueryOptions) {
			return context.Background(), func() {}, &QueryOptions{Timeout: time.Nanosecond}
		}, ErrDeadlineExceeded, func(bool) int { return 1 }, -1},
		{"budget-mid-repair", func() (context.Context, context.CancelFunc, *QueryOptions) {
			return context.Background(), func() {}, &QueryOptions{Budget: Budget{MaxNodes: 1}}
		}, ErrBudgetExceeded, func(mat bool) int {
			if mat {
				return 1 // the second popped node exceeds the budget
			}
			return -1 // hub repairs run in memory, behind the commit point
		}, 1},
		{"cancel-mid-repair", func() (context.Context, context.CancelFunc, *QueryOptions) {
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(20 * time.Microsecond)
				cancel()
			}()
			return ctx, cancel, nil
		}, ErrCanceled, func(bool) int { return 0 }, 0}, // the timer may fire before the first poll
		{"success", func() (context.Context, context.CancelFunc, *QueryOptions) {
			return context.Background(), func() {}, nil
		}, nil, func(bool) int { return -1 }, 0},
	}
	for _, op := range ops {
		for _, sub := range op.over {
			// One set per shape, carried through every bound in turn: an
			// abandoned operation must leave nothing for the next to trip on.
			// Each bound's result is checked at every 9th node (the race
			// stress line runs this test 40 times), the last one at every node.
			e := newMaintEnv(t, op.edge, sub.mat, sub.hub)
			for _, b := range bounds {
				t.Run(op.name+"/"+sub.name+"/"+b.name, func(t *testing.T) {
					for round := 0; round < 2; round++ { // an abandoned repair rolls back from its in-memory before-images, so every outcome leaves a set the next round can use
						before := e.snapshot()
						ctx, cancel, opt := b.bound()
						var p PointID
						var st Stats
						var err error
						if op.insert {
							p, st, err = e.set().Insert(ctx, e.freeSpot(t, round), opt)
						} else {
							p = e.set().Points()[round]
							st, err = e.set().Remove(ctx, p, opt)
						}
						cancel()
						after := e.snapshot()
						switch want := b.abandons(sub.mat); {
						case err == nil && want == 1:
							t.Fatalf("round %d: the operation was not abandoned", round)
						case err != nil && want == -1:
							t.Fatalf("round %d: %v", round, err)
						}
						if err != nil {
							if !IsExecErr(err) || !errors.Is(err, b.want) {
								t.Fatalf("round %d: err = %v, want the typed %v", round, err, b.want)
							}
							if op.insert && p != -1 {
								t.Fatalf("round %d: abandoned insert returned point %d, want -1", round, p)
							}
							if b.work == -1 && st != (Stats{}) {
								t.Fatalf("round %d: expired-at-start operation reports work: %+v", round, st)
							} else if b.work == 1 && st.NodesExpanded == 0 {
								t.Fatalf("round %d: abandoned mid-repair without partial stats: %+v", round, st)
							}
							if fmt.Sprint(after) != fmt.Sprint(before) {
								t.Fatalf("round %d: abandoned operation changed the set: %v -> %v", round, before, after)
							}
						} else {
							loc, present := after[p]
							if present != op.insert || len(after) == len(before) {
								t.Fatalf("round %d: committed operation left point %d present=%t (%d -> %d points)",
									round, p, present, len(before), len(after))
							}
							if op.insert && op.edge == (loc.U == loc.V) {
								t.Fatalf("round %d: point %d landed at %+v", round, p, loc)
							}
							if sub.mat && st.MatReads == 0 || sub.hub && st.LabelReads == 0 {
								t.Fatalf("round %d: stats do not sum the substrates repaired: %+v", round, st)
							}
						}
						if state := RepairClean; e.mat != nil && e.mat.RepairState() != state {
							t.Fatalf("round %d: RepairState = %v, want %v", round, e.mat.RepairState(), state)
						}
					}
					e.mustBeExact(t, "afterwards", 9)
				})
			}
			t.Run(op.name+"/"+sub.name+"/every node", func(t *testing.T) { e.mustBeExact(t, "after every bound", 1) })
		}
	}
}

// TestInsertRemoveKeepSubstratesExact drives N inserts and deletes through
// the one path with both substrates tracking the set — and a second
// materialization, so "every substrate" is more than one of a kind — and
// requires eager-M (both), hub-label and the auto plan to stay exact and
// the lists to equal a from-scratch rebuild.
func TestInsertRemoveKeepSubstratesExact(t *testing.T) {
	e := newMaintEnv(t, false, true, true)
	second, err := e.db.MaterializeNodePoints(e.node, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	var inserted []PointID
	for i := 0; i < 6; i++ {
		p, st, err := e.node.Insert(context.Background(), e.freeSpot(t, i), &QueryOptions{Timeout: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		if st.MatReads == 0 || st.LabelReads == 0 {
			t.Fatalf("insert %d: stats do not sum both substrates: %+v", p, st)
		}
		inserted = append(inserted, p)
	}
	e.mustBeExact(t, "after inserts", 1)
	for _, p := range []PointID{inserted[1], inserted[4], e.node.Points()[0]} {
		if _, err := e.node.Remove(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.mustBeExact(t, "after deletes", 1)
	if pl, _ := e.db.Plan(Query{Kind: KindRNN, Target: NodeLocation(0), K: 1, Points: e.node}); pl.Algorithm.hub != e.hub {
		t.Fatalf("planned %q, want the set's hub-label index", pl.Explain())
	}
	for _, m := range []*Materialization{e.mat, second} {
		oracle := rebuildOracle(t, e.db, m, m.MaxK())
		assertSameLists(t, m, oracle, fmt.Sprintf("maxK=%d lists vs rebuild", m.MaxK()))
		oracle.Close()
	}
}

// TestSubstrateDetachedOnFailedHubRepair: a hub-label index that cannot
// follow a committed mutation is detached — reported beside the committed
// id, never planned again, rejected when hinted — while the set and its
// materialization carry the operation.
func TestSubstrateDetachedOnFailedHubRepair(t *testing.T) {
	e := newMaintEnv(t, false, true, true)
	// Break the index behind the set's back, as only a bug could: it
	// already holds the id the set assigns next.
	next := points.PointID(len(e.node.ns.Table()))
	if _, err := e.hub.idx.Insert(next, graph.NodeID(e.freeSpot(t, 7).U)); err != nil {
		t.Fatal(err)
	}
	lenBefore := e.node.Len()
	p, st, err := e.node.Insert(context.Background(), e.freeSpot(t, 3), nil)
	if !errors.Is(err, ErrSubstrateDetached) || IsExecErr(err) {
		t.Fatalf("err = %v, want ErrSubstrateDetached", err)
	}
	if p != PointID(next) || e.node.Len() != lenBefore+1 || st.MatReads == 0 {
		t.Fatalf("operation not committed beside the detachment: point %d, %d -> %d points, %+v",
			p, lenBefore, e.node.Len(), st)
	}
	detached := e.hub
	e.hub = nil // mustBeExact: eager-M and the auto plan only
	e.mustBeExact(t, "after detachment", 1)
	q := Query{Kind: KindRNN, Target: NodeLocation(0), K: 1, Points: e.node, Algorithm: HubLabel(detached)}
	if res, err := e.db.Run(context.Background(), q); err != nil || !res.Plan.Fallback || res.Plan.Algorithm.mat != e.mat {
		t.Fatalf("hint to the detached index: plan %+v, err %v; want a fallback to eager-M", res, err)
	}
	q.Strict = true
	if _, err := e.db.Run(context.Background(), q); err == nil {
		t.Fatal("strict hint to the detached index was answered")
	}
	// Later mutations no longer involve it, and Close still releases it.
	if _, err := e.node.Place(e.freeSpot(t, 5).U); err != nil {
		t.Fatal(err)
	}
	if err := detached.Close(); err != nil {
		t.Fatal(err)
	}
}

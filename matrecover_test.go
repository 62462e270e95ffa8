package graphrnn

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"graphrnn/internal/core"
	"graphrnn/internal/graph"
)

// assertSameLists compares every materialized list of two materializations
// bit for bit — the oracle check that an abandoned-and-rolled-back
// maintenance history equals a from-scratch rebuild.
func assertSameLists(t *testing.T, got, want *Materialization, context string) {
	t.Helper()
	if got.m.NumNodes() != want.m.NumNodes() {
		t.Fatalf("%s: %d nodes vs %d", context, got.m.NumNodes(), want.m.NumNodes())
	}
	var glst, wlst []core.MatEntry
	var err error
	for n := 0; n < got.m.NumNodes(); n++ {
		if glst, err = got.m.List(graph.NodeID(n), glst); err != nil {
			t.Fatalf("%s: %v", context, err)
		}
		if wlst, err = want.m.List(graph.NodeID(n), wlst); err != nil {
			t.Fatalf("%s: %v", context, err)
		}
		if len(glst) != len(wlst) {
			t.Fatalf("%s: node %d list = %v, want %v", context, n, glst, wlst)
		}
		for i := range glst {
			if glst[i] != wlst[i] {
				t.Fatalf("%s: node %d list = %v, want %v", context, n, glst, wlst)
			}
		}
	}
}

// matHarness is one configuration of the abandonment property test.
type matHarness struct {
	name string
	edge bool // edge-resident point set
}

var matHarnesses = []matHarness{
	{"node-memory", false},
	{"edge-memory", true},
}

// buildHarness assembles a materialization of the requested shape over a
// small grid graph with a random point set.
func buildHarness(t *testing.T, rng *rand.Rand, h matHarness, db *DB, maxK int) *Materialization {
	t.Helper()
	g := db.Graph()
	var mat *Materialization
	var err error
	if h.edge {
		ps := db.NewEdgePoints()
		placed := 0
		g.Edges(func(u, v NodeID, w float64) {
			if placed < 12 && rng.Intn(3) == 0 {
				if _, err := ps.Place(u, v, w*rng.Float64()); err == nil {
					placed++
				}
			}
		})
		if placed == 0 {
			u, v, w := firstEdge(g)
			if _, err := ps.Place(u, v, w/2); err != nil {
				t.Fatal(err)
			}
		}
		mat, err = db.MaterializeEdgePoints(ps, maxK, nil)
	} else {
		var ps *NodePoints
		ps, err = db.PlaceRandomNodePoints(rng.Int63(), 8+rng.Intn(8))
		if err != nil {
			t.Fatal(err)
		}
		mat, err = db.MaterializeNodePoints(ps, maxK, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return mat
}

func firstEdge(g *Graph) (NodeID, NodeID, float64) {
	var fu, fv NodeID
	var fw float64
	found := false
	g.Edges(func(u, v NodeID, w float64) {
		if !found {
			fu, fv, fw = u, v, w
			found = true
		}
	})
	return fu, fv, fw
}

// rebuildOracle builds a fresh materialization over the same (current)
// point set — the from-scratch state the maintained lists must equal.
func rebuildOracle(t *testing.T, db *DB, mat *Materialization, maxK int) *Materialization {
	t.Helper()
	var oracle *Materialization
	var err error
	if ps := mat.NodePoints(); ps != nil {
		oracle, err = db.MaterializeNodePoints(ps, maxK, nil)
	} else {
		oracle, err = db.MaterializeEdgePoints(mat.EdgePoints(), maxK, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

// randomOp performs one random maintenance operation under opt, returning
// whether it committed. Abandoned operations must report a typed exec
// error and leave the materialization clean (auto-rolled-back).
func randomOp(t *testing.T, rng *rand.Rand, db *DB, mat *Materialization, opt *QueryOptions, ctx context.Context) bool {
	t.Helper()
	var err error
	deletable := func() []PointID {
		if ps := mat.NodePoints(); ps != nil {
			return ps.Points()
		}
		return mat.EdgePoints().Points()
	}()
	doDelete := len(deletable) > 1 && rng.Intn(2) == 0
	switch {
	case doDelete:
		_, err = mat.set().Remove(ctx, deletable[rng.Intn(len(deletable))], opt)
	case mat.NodePoints() != nil:
		n := NodeID(rng.Intn(db.Graph().NumNodes()))
		if _, taken := mat.NodePoints().PointAt(n); taken {
			return false
		}
		_, _, err = mat.NodePoints().Insert(ctx, NodeLocation(n), opt)
	default:
		u, v, w := firstEdge(db.Graph())
		_, _, err = mat.EdgePoints().Insert(ctx, EdgeLocation(u, v, w*rng.Float64()), opt)
	}
	if err != nil && !IsExecErr(err) {
		t.Fatalf("maintenance failed with a non-exec error: %v", err)
	}
	if state := mat.RepairState(); state != RepairClean {
		t.Fatalf("after op (err=%v): RepairState = %v, want clean", err, state)
	}
	return err == nil
}

// TestMaintenanceAbandonedOpsRollBack is the abandonment property test:
// maintenance operations abandoned at randomized poll points (tiny node
// budgets hit mid-expansion) must leave the materialization queryable and
// bit-identical to a from-scratch rebuild over the surviving point set —
// across node- and edge-resident point sets.
func TestMaintenanceAbandonedOpsRollBack(t *testing.T) {
	for _, h := range matHarnesses {
		t.Run(h.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(70))
			g, err := GenerateGrid(71, 144, 4)
			if err != nil {
				t.Fatal(err)
			}
			db, err := Open(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			const maxK = 2
			mat := buildHarness(t, rng, h, db, maxK)
			committed, abandoned := 0, 0
			for op := 0; op < 40; op++ {
				// 1..6 nodes of budget abandons most repairs mid-flight at
				// a different poll point each time; occasionally unlimited
				// so the history also contains committed operations.
				var opt *QueryOptions
				if rng.Intn(4) > 0 {
					opt = &QueryOptions{Budget: Budget{MaxNodes: int64(1 + rng.Intn(6))}}
				}
				if randomOp(t, rng, db, mat, opt, context.Background()) {
					committed++
				} else {
					abandoned++
				}
			}
			if abandoned == 0 {
				t.Fatal("property test abandoned no operations; budgets too loose")
			}
			// Recover is a no-op on a clean materialization.
			if pending, err := mat.Recover(); err != nil || pending {
				t.Fatalf("Recover() = %t, %v; want false, nil", pending, err)
			}
			oracle := rebuildOracle(t, db, mat, maxK)
			assertSameLists(t, mat, oracle, h.name)
		})
	}
}

// TestMaintenanceAsyncCancelRace abandons maintenance via real context
// cancellation from a second goroutine — the -race half of the property
// test — and checks the rolled-back materialization still equals a
// rebuild.
func TestMaintenanceAsyncCancelRace(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g, err := GenerateGrid(73, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	const maxK = 2
	mat := buildHarness(t, rng, matHarness{name: "node-memory"}, db, maxK)
	for op := 0; op < 25; op++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(rng.Intn(200)) * time.Microsecond)
		randomOp(t, rng, db, mat, nil, ctx)
		cancel()
	}
	oracle := rebuildOracle(t, db, mat, maxK)
	assertSameLists(t, mat, oracle, "async cancel")
}

// TestPlainMaintenanceRollsBackPointSet is the satellite-2 regression: a
// plain (non-context) maintenance operation whose list repair fails must
// not leave the point set and the lists disagreeing — the Place/Delete is
// rolled back with the lists.
func TestPlainMaintenanceRollsBackPointSet(t *testing.T) {
	g, err := GenerateGrid(80, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(81, 10)
	if err != nil {
		t.Fatal(err)
	}
	const maxK = 2
	mat, err := db.MaterializeNodePoints(ps, maxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	lenBefore := ps.Len()

	// Failed insert: the placed point must vanish again.
	free := NodeID(-1)
	for n := 0; n < g.NumNodes(); n++ {
		if _, taken := ps.PointAt(NodeID(n)); !taken {
			free = NodeID(n)
			break
		}
	}
	mat.m.InjectWriteFault(1)
	_, err = ps.Place(free)
	mat.m.InjectWriteFault(0)
	if err == nil {
		t.Fatal("injected fault did not fail the insert")
	}
	if mat.RepairState() != RepairClean {
		t.Fatalf("RepairState = %v after rolled-back insert", mat.RepairState())
	}
	if _, taken := ps.PointAt(free); taken {
		t.Fatal("failed insert left its point in the set")
	}
	if ps.Len() != lenBefore {
		t.Fatalf("point set has %d points after failed insert, want %d", ps.Len(), lenBefore)
	}

	// Failed delete: the point must survive, on its node.
	victim := ps.Points()[0]
	victimNode, _ := ps.NodeOf(victim)
	mat.m.InjectWriteFault(1)
	err = ps.Delete(victim)
	mat.m.InjectWriteFault(0)
	if err == nil {
		t.Fatal("injected fault did not fail the delete")
	}
	if n, ok := ps.NodeOf(victim); !ok || n != victimNode {
		t.Fatalf("failed delete removed point %d (node %d, ok=%t)", victim, n, ok)
	}

	// After both rollbacks the lists still equal a rebuild, and normal
	// maintenance proceeds.
	oracle := rebuildOracle(t, db, mat, maxK)
	assertSameLists(t, mat, oracle, "after plain-path rollbacks")
	if _, err := ps.Place(free); err != nil {
		t.Fatalf("maintenance after rollback failed: %v", err)
	}
}

// TestDeletePointMissingEdge is the satellite-1 regression: deleting an
// edge-resident point whose edge the materialization's graph does not
// contain must fail with ErrMissingEdge instead of seeding the repair with
// a garbage distance.
func TestDeletePointMissingEdge(t *testing.T) {
	big := NewGraphBuilder(3)
	if err := big.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := big.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	g1, err := big.Build()
	if err != nil {
		t.Fatal(err)
	}
	small := NewGraphBuilder(3)
	if err := small.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	g2, err := small.Build()
	if err != nil {
		t.Fatal(err)
	}
	db1, err := Open(g1, nil)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(g2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := db1.NewEdgePoints()
	if _, err := ps.Place(0, 1, 0.5); err != nil {
		t.Fatal(err)
	}
	// Materialize over db2, whose graph shares edge (0,1) only.
	mat, err := db2.MaterializeEdgePoints(ps, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A point on an edge db2 does not know cannot arrive through the one
	// path any more; reach behind it, as only a bug could.
	raw, err := ps.es.Place(1, 2, db1.graph.g.Round(0.25))
	if err != nil {
		t.Fatal(err)
	}
	stray := PointID(raw)
	err = ps.Delete(stray)
	if !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("Delete over a missing edge returned %v, want ErrMissingEdge", err)
	}
	// The set is untouched and the lists clean: the seeds never resolved,
	// so the operation rolled back before any list was written.
	if _, ok := ps.LocationOf(stray); !ok {
		t.Fatal("failed delete removed the point")
	}
	if mat.RepairState() != RepairClean {
		t.Fatalf("RepairState = %v after the failed delete", mat.RepairState())
	}
	// Place validates the same way: the set's own graph knows edge (1,2),
	// the materialization's does not, and the point does not stay.
	lenBefore := ps.Len()
	if _, err := ps.Place(1, 2, 0.1); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("Place over an edge the materialization lacks returned %v, want ErrMissingEdge", err)
	}
	if ps.Len() != lenBefore {
		t.Fatal("failed Place left its point in the set")
	}
	// And so does EdgePoints.Place on its own DB.
	ps2 := db2.NewEdgePoints()
	if _, err := ps2.Place(1, 2, 0.1); !errors.Is(err, ErrMissingEdge) {
		t.Fatalf("Place over a missing edge returned %v, want ErrMissingEdge", err)
	}
}

// TestMaintenanceBudgetAbandonsUpfrontDeadline pins the engine contract on
// the maintenance surface: an already-expired deadline fails before any
// page traffic and before any point-set mutation.
func TestMaintenanceBudgetAbandonsUpfrontDeadline(t *testing.T) {
	g, err := GenerateGrid(82, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(83, 6)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	lenBefore := ps.Len()
	opt := &QueryOptions{Timeout: time.Nanosecond}
	if _, _, err := ps.Insert(context.Background(), NodeLocation(0), opt); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("1ns insert returned %v, want ErrDeadlineExceeded", err)
	}
	if ps.Len() != lenBefore {
		t.Fatal("expired-deadline insert mutated the point set")
	}
	if mat.RepairState() != RepairClean {
		t.Fatalf("RepairState = %v", mat.RepairState())
	}
}

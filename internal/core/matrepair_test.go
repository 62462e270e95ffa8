package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// snapshotLists decodes every node's materialized list.
func snapshotLists(t *testing.T, mat *Materialized) [][]MatEntry {
	t.Helper()
	out := make([][]MatEntry, mat.NumNodes())
	var lst []MatEntry
	var err error
	for n := range out {
		lst, err = mat.List(graph.NodeID(n), lst)
		if err != nil {
			t.Fatal(err)
		}
		out[n] = append([]MatEntry(nil), lst...)
	}
	return out
}

func boundSearcher(g graph.Access, maxNodes int64) *Searcher {
	s := NewSearcher(g)
	if maxNodes > 0 {
		return s.Bound(exec.New(context.Background(), exec.Budget{MaxNodes: maxNodes}, nil))
	}
	return s
}

// TestMatRepairRollbackRestoresLists abandons insert and delete repairs at
// randomized points (via tiny node budgets) and checks RollbackRepair makes
// the lists bit-identical to the pre-operation snapshot.
func TestMatRepairRollbackRestoresLists(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for it := 0; it < iters; it++ {
		g := randNet(t, rng, 15+rng.Intn(40), rng.Intn(80), 0.5)
		ps := randPoints(t, rng, g, 4+rng.Intn(6))
		maxK := 1 + rng.Intn(3)
		mat := buildMat(t, NewSearcher(g), ps, maxK)
		before := snapshotLists(t, mat)

		budget := int64(1 + rng.Intn(8))
		s := boundSearcher(g, budget)

		if rng.Intn(2) == 0 {
			// Abandon an insertion.
			node := graph.NodeID(rng.Intn(g.NumNodes()))
			if _, taken := ps.PointAt(node); taken {
				continue
			}
			p, err := ps.Place(node)
			if err != nil {
				t.Fatal(err)
			}
			if err := mat.BeginRepair(); err != nil {
				t.Fatal(err)
			}
			_, opErr := s.MatInsert(mat, p, NodeLoc(node))
			if opErr != nil && !exec.IsExecErr(opErr) {
				t.Fatalf("iter %d: unexpected insert error: %v", it, opErr)
			}
			if err := mat.RollbackRepair(); err != nil {
				t.Fatal(err)
			}
			if err := ps.Delete(p); err != nil {
				t.Fatal(err)
			}
		} else {
			// Abandon a deletion.
			pts := ps.Points()
			p := pts[rng.Intn(len(pts))]
			node, _ := ps.NodeOf(p)
			if err := mat.BeginRepair(); err != nil {
				t.Fatal(err)
			}
			_, opErr := s.MatDelete(mat, p, NodeLoc(node))
			if opErr != nil && !exec.IsExecErr(opErr) {
				t.Fatalf("iter %d: unexpected delete error: %v", it, opErr)
			}
			if err := mat.RollbackRepair(); err != nil {
				t.Fatal(err)
			}
		}
		assertMatEqual(t, mat, before, "after rollback")
		if mat.RepairPending() {
			t.Fatal("repair still pending after rollback")
		}
	}
}

// TestMatInjectedWriteFaultRollback is the before-image rule, dynamically:
// every maintained list write of MatInsert and of MatDelete is faulted in
// turn (countdown 1, 2, ... until the operation completes), node- and
// edge-resident, the repair is rolled back from its before-images, and the
// lists must come back bit-identical every time. A writeList whose list was
// not saveBefore-d first is not restored and fails here; so does a repair
// that writes through restoreList, whose writes the countdown cannot see.
func TestMatInjectedWriteFaultRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	iters := 12
	if testing.Short() {
		iters = 3
	}
	faulted := 0
	for it := 0; it < iters; it++ {
		g := randNet(t, rng, 20+rng.Intn(30), rng.Intn(60), 0.5)
		edges := graphEdges(g)
		s := NewSearcher(g)

		nps := randPoints(t, rng, g, 5)
		free := graph.NodeID(0)
		for _, taken := nps.PointAt(free); taken; _, taken = nps.PointAt(free) {
			free++
		}
		eps := randEdgePoints(t, rng, g, 5)

		for _, res := range []struct {
			name  string
			ps    PointSet
			fresh Loc // where a point no list has seen yet appears
		}{
			{"node", PointSet{Node: nps}, NodeLoc(free)},
			{"edge", PointSet{Edge: eps}, randULoc(rng, g, edges)},
		} {
			n := len(res.ps.ids()) // dense: the next fresh id
			victim := points.PointID(rng.Intn(n))
			vloc, _ := res.ps.loc(victim)
			ops := []struct {
				name string
				run  func(m *Materialized) error
			}{
				{"insert", func(m *Materialized) error {
					_, err := s.MatInsert(m, points.PointID(n), res.fresh)
					return err
				}},
				{"delete", func(m *Materialized) error {
					_, err := s.MatDelete(m, victim, vloc)
					return err
				}},
			}

			mem, err := matBuild(s, res.ps, 2, newMemMatFile(), 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops {
				label := fmt.Sprintf("iter %d %s %s", it, res.name, op.name)
				faulted += sweepWriteFaults(t, label+" in memory", mem, op.run)
			}
			if err := mem.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no repair wrote a list: the sweep tested nothing")
	}
}

// sweepWriteFaults runs op on mat once per maintained list write it makes,
// failing that write, rolling the repair back and comparing the lists with
// the pre-operation snapshot; the run that completes is rolled back and
// compared the same way. It returns the number of writes it faulted.
func sweepWriteFaults(t *testing.T, label string, mat *Materialized, op func(*Materialized) error) int {
	t.Helper()
	before := snapshotLists(t, mat)
	for countdown := 1; ; countdown++ {
		if err := mat.BeginRepair(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		mat.InjectWriteFault(countdown)
		opErr := op(mat)
		mat.InjectWriteFault(0)
		if opErr != nil && !strings.Contains(opErr.Error(), "injected") {
			t.Fatalf("%s: unexpected error at write %d: %v", label, countdown, opErr)
		}
		if opErr == nil {
			// countdown-1 writes went through the fault seam; a list that
			// changed without one was written behind the before-images.
			changed := 0
			for n, lst := range snapshotLists(t, mat) {
				if !slices.Equal(lst, before[n]) {
					changed++
				}
			}
			if changed > countdown-1 {
				t.Fatalf("%s: %d lists changed in %d maintained writes", label, changed, countdown-1)
			}
		}
		where := fmt.Sprintf("%s: after fault at write %d", label, countdown)
		if err := mat.RollbackRepair(); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		assertMatEqual(t, mat, before, where)
		if mat.RepairPending() {
			t.Fatalf("%s: repair still pending", where)
		}
		if opErr == nil {
			return countdown - 1
		}
	}
}

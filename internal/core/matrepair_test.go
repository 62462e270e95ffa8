package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
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
			if err := mat.BeginRepair(nil); err != nil {
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
			if err := mat.BeginRepair(nil); err != nil {
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

// TestMatInjectedWriteFaultRollback is the write-ahead rule, dynamically:
// every maintained list write of MatInsert and of MatDelete is faulted in
// turn (countdown 1, 2, ... until the operation completes), node- and
// edge-resident, on the in-memory materialization (rolled back from the
// repair's before-images) and on the journaled file-backed one (abandoned
// like a crash and recovered from the journal on reopen), and the lists must
// come back bit-identical every time. A writeList whose list was not
// journalTouch-ed first is not restored and fails here; so does a repair
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
		ntab := nps.Table()
		nrecs := make([]PointRecord, len(ntab))
		for i, n := range ntab {
			nrecs[i] = PointRecord{U: n, V: n}
		}
		free := graph.NodeID(0)
		for _, taken := nps.PointAt(free); taken; _, taken = nps.PointAt(free) {
			free++
		}

		eps := randEdgePoints(t, rng, g, 5)
		etab := eps.Table()
		erecs := make([]PointRecord, len(etab))
		for i, ep := range etab {
			erecs[i] = PointRecord{U: ep.U, V: ep.V, Pos: ep.Pos}
		}

		for _, res := range []struct {
			name  string
			ps    PointSet
			kind  byte
			recs  []PointRecord
			fresh Loc // where a point no list has seen yet appears
		}{
			{"node", PointSet{Node: nps}, MatKindNode, nrecs, NodeLoc(free)},
			{"edge", PointSet{Edge: eps}, MatKindEdge, erecs, randULoc(rng, g, edges)},
		} {
			victim := points.PointID(rng.Intn(len(res.recs)))
			vrec := res.recs[victim]
			ops := []struct {
				name string
				run  func(m *Materialized) error
			}{
				{"insert", func(m *Materialized) error {
					_, err := s.MatInsert(m, points.PointID(len(res.recs)), res.fresh)
					return err
				}},
				{"delete", func(m *Materialized) error {
					_, err := s.MatDelete(m, victim, Loc{U: vrec.U, V: vrec.V, Pos: vrec.Pos})
					return err
				}},
			}

			mem, err := matBuild(s, res.ps, 2, newMemMatFile(), 64, nil)
			if err != nil {
				t.Fatal(err)
			}
			file, jfile := newMemMatFile(), newMemMatFile()
			if err := MatSave(mem, res.kind, res.recs, file); err != nil {
				t.Fatal(err)
			}
			reopen := func() *Materialized {
				m, _, _, err := MatOpen(file, storage.NewBufferPool(16).Attach("", file, 0), jfile)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			for _, op := range ops {
				label := fmt.Sprintf("iter %d %s %s", it, res.name, op.name)
				faulted += sweepWriteFaults(t, label+" in memory", mem, nil, op.run)
				faulted += sweepWriteFaults(t, label+" journaled", reopen(), reopen, op.run)
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
// failing that write, undoing the repair and comparing the lists with the
// pre-operation snapshot; the run that completes is undone and compared the
// same way. With reopen nil the repair is rolled back in process; otherwise
// it is abandoned without a rollback, its dirty pages flushed, and the
// materialization reopened, which recovers from the journal. It returns the
// number of writes it faulted.
func sweepWriteFaults(t *testing.T, label string, mat *Materialized, reopen func() *Materialized, op func(*Materialized) error) int {
	t.Helper()
	before := snapshotLists(t, mat)
	if reopen != nil {
		defer func() {
			if err := mat.Close(); err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}()
	}
	for countdown := 1; ; countdown++ {
		if err := mat.BeginRepair(nil); err != nil {
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
			// changed without one was written behind the journal's back.
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
		if reopen == nil {
			if err := mat.RollbackRepair(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		} else {
			mat.AbandonRepair()
			if err := mat.Close(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			mat = reopen()
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

// persistedMat saves mat into a fresh file pair and reopens it.
func persistedMat(t *testing.T, mat *Materialized, ps *points.NodeSet) (*Materialized, *points.NodeSet, storage.PagedFile, storage.PagedFile) {
	t.Helper()
	file := storage.NewMemFile(storage.DefaultPageSize)
	jfile := storage.NewMemFile(storage.DefaultPageSize)
	tab := ps.Table()
	pts := make([]PointRecord, len(tab))
	for i, n := range tab {
		if n < 0 {
			pts[i] = PointAbsent
		} else {
			pts[i] = PointRecord{U: n, V: n}
		}
	}
	if err := MatSave(mat, MatKindNode, pts, file); err != nil {
		t.Fatal(err)
	}
	return reopenMat(t, file, jfile)
}

func reopenMat(t *testing.T, file, jfile storage.PagedFile) (*Materialized, *points.NodeSet, storage.PagedFile, storage.PagedFile) {
	t.Helper()
	bm := storage.NewBufferPool(16).Attach("", file, 0)
	m, kind, pts, err := MatOpen(file, bm, jfile)
	if err != nil {
		t.Fatal(err)
	}
	if kind != MatKindNode {
		t.Fatalf("kind = %d, want node", kind)
	}
	nodes := make([]graph.NodeID, len(pts))
	for i, r := range pts {
		if r.U < 0 {
			nodes[i] = -1
		} else {
			nodes[i] = r.U
		}
	}
	ns, err := points.RestoreNodeSet(m.NumNodes(), nodes)
	if err != nil {
		t.Fatal(err)
	}
	return m, ns, file, jfile
}

// TestMatSaveOpenRoundTrip persists a materialization, reopens it, checks
// the lists and the point set survive, commits durable maintenance, and
// reopens again to see the committed operation.
func TestMatSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for it := 0; it < 20; it++ {
		g := randNet(t, rng, 15+rng.Intn(40), rng.Intn(80), 0.5)
		ps := randPoints(t, rng, g, 4+rng.Intn(5))
		maxK := 1 + rng.Intn(3)
		mat := buildMat(t, NewSearcher(g), ps, maxK)

		m2, ps2, file, jfile := persistedMat(t, mat, ps)
		if ps2.Len() != ps.Len() {
			t.Fatalf("reopened point set has %d points, want %d", ps2.Len(), ps.Len())
		}
		assertMatEqual(t, m2, snapshotLists(t, mat), "reopened lists")

		// A committed maintenance operation must survive a further reopen.
		s := NewSearcher(g)
		var node graph.NodeID = -1
		for n := 0; n < g.NumNodes(); n++ {
			if _, taken := ps2.PointAt(graph.NodeID(n)); !taken {
				node = graph.NodeID(n)
				break
			}
		}
		if node < 0 {
			continue
		}
		p, err := ps2.Place(node)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.BeginRepair(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := s.MatInsert(m2, p, NodeLoc(node)); err != nil {
			t.Fatal(err)
		}
		if err := m2.CommitRepair(p, PointRecord{U: node, V: node}); err != nil {
			t.Fatal(err)
		}
		want := bruteLists(t, g, ps2, maxK+1)
		m3, ps3, _, _ := reopenMat(t, file, jfile)
		if ps3.Len() != ps2.Len() {
			t.Fatalf("point set after reopen has %d points, want %d", ps3.Len(), ps2.Len())
		}
		if n3, ok := ps3.NodeOf(p); !ok || n3 != node {
			t.Fatalf("committed insert of point %d on node %d did not persist (got %d, %t)", p, node, n3, ok)
		}
		assertMatEqual(t, m3, want, "after committed maintenance + reopen")
	}
}

// TestMatCrashRecovery abandons a repair without rolling back (simulated
// crash: dirty pages flushed, journal uncommitted) and checks the reopen
// path restores the pre-operation lists from the journal.
func TestMatCrashRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for it := 0; it < 30; it++ {
		g := randNet(t, rng, 20+rng.Intn(40), rng.Intn(80), 0.5)
		ps := randPoints(t, rng, g, 4+rng.Intn(5))
		maxK := 1 + rng.Intn(3)
		mat := buildMat(t, NewSearcher(g), ps, maxK)
		m2, ps2, file, jfile := persistedMat(t, mat, ps)
		before := snapshotLists(t, m2)

		// Crash mid-insert: the budget abandons the repair, nothing is
		// rolled back, and every dirty page reaches the file (the worst
		// case — any prefix could).
		var node graph.NodeID = -1
		for n := 0; n < g.NumNodes(); n++ {
			if _, taken := ps2.PointAt(graph.NodeID(n)); !taken {
				node = graph.NodeID(n)
				break
			}
		}
		if node < 0 {
			continue
		}
		p, err := ps2.Place(node)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.BeginRepair([]byte("crash-test")); err != nil {
			t.Fatal(err)
		}
		s := boundSearcher(g, int64(1+rng.Intn(6)))
		_, opErr := s.MatInsert(m2, p, NodeLoc(node))
		if opErr != nil && !errors.Is(opErr, exec.ErrBudgetExceeded) {
			t.Fatalf("unexpected insert error: %v", opErr)
		}
		m2.AbandonRepair()
		if err := m2.Flush(); err != nil {
			t.Fatal(err)
		}
		if !m2.RepairPending() {
			t.Fatal("abandoned operation not pending")
		}

		// "Next process": reopen the same files; recovery must roll back.
		m3, ps3, _, _ := reopenMat(t, file, jfile)
		if m3.RepairPending() {
			t.Fatal("reopened materialization still pending after recovery")
		}
		assertMatEqual(t, m3, before, "after crash recovery")
		// The uncommitted Place never reached the file either.
		if ps3.Len() != ps.Len() {
			t.Fatalf("point set after recovery has %d points, want %d", ps3.Len(), ps.Len())
		}
	}
}

// TestMatCrashDuringCommitRollsBackPointRecord covers the narrowest crash
// window: the commit flushed the lists and overwrote the point record, but
// died before the header flip. Recovery must roll back the point region
// along with the lists — otherwise the reopened set and lists disagree.
func TestMatCrashDuringCommitRollsBackPointRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	g := randNet(t, rng, 30, 40, 0.5)
	ps := randPoints(t, rng, g, 6)
	mat := buildMat(t, NewSearcher(g), ps, 2)
	m2, ps2, file, jfile := persistedMat(t, mat, ps)
	before := snapshotLists(t, m2)

	// Run a full delete repair, then replay CommitRepair's steps by hand
	// up to (but not including) the header flip.
	p := ps2.Points()[0]
	node := mustNodeOf(t, ps2, p)
	if err := m2.BeginRepair(nil); err != nil {
		t.Fatal(err)
	}
	if err := ps2.Delete(p); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSearcher(g).MatDelete(m2, p, NodeLoc(node)); err != nil {
		t.Fatal(err)
	}
	if err := m2.Flush(); err != nil {
		t.Fatal(err)
	}
	old, err := m2.pst.readPointRecord(p)
	if err != nil {
		t.Fatal(err)
	}
	if old.U != node {
		t.Fatalf("persisted record of point %d = %+v, want node %d", p, old, node)
	}
	if err := m2.pst.journal.Append(encodePointImage(p, old)); err != nil {
		t.Fatal(err)
	}
	if err := m2.pst.writePointRecord(p, PointAbsent); err != nil {
		t.Fatal(err)
	}
	m2.AbandonRepair() // crash: header never flipped clean

	m3, ps3, _, _ := reopenMat(t, file, jfile)
	if m3.RepairPending() {
		t.Fatal("still pending after recovery")
	}
	assertMatEqual(t, m3, before, "lists after commit-window crash")
	if n3, ok := ps3.NodeOf(p); !ok || n3 != node {
		t.Fatalf("point %d after recovery: node %d ok=%t, want node %d — point region not rolled back", p, n3, ok, node)
	}
}

// TestMatSaveRejectsUnjournalableK ensures a maxK whose before-images
// cannot fit a journal record is rejected at save time, not at the first
// maintenance operation.
func TestMatSaveRejectsUnjournalableK(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	g := randNet(t, rng, 10, 10, 0.5)
	ps := randPoints(t, rng, g, 3)
	// 4096-byte pages hold lists up to cap=341 (2+12*341=4094 <= 4090 is
	// false... choose page size 512: lists fit cap <= 42, journal records
	// fit cap <= 41).
	s := NewSearcher(g)
	mat, err := matBuild(s, PointSet{Node: ps}, 41, storage.NewMemFile(512), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := MatSave(mat, MatKindNode, nil, storage.NewMemFile(512)); err == nil {
		t.Fatal("unjournalable maxK accepted by MatSave")
	}
}

// TestMatOpenMissingJournal ensures a pending header without journal
// records refuses to open silently.
func TestMatOpenMissingJournal(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := randNet(t, rng, 25, 30, 0.5)
	ps := randPoints(t, rng, g, 5)
	mat := buildMat(t, NewSearcher(g), ps, 2)
	m2, ps2, file, _ := persistedMat(t, mat, ps)
	p, err := ps2.Place(findFree(t, g, ps2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.BeginRepair(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSearcher(g).MatInsert(m2, p, NodeLoc(mustNodeOf(t, ps2, p))); err != nil {
		t.Fatal(err)
	}
	m2.AbandonRepair()
	if err := m2.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reopen with an EMPTY journal: recovery must fail loudly.
	bm := storage.NewBufferPool(16).Attach("", file, 0)
	if _, _, _, err := MatOpen(file, bm, storage.NewMemFile(storage.DefaultPageSize)); err == nil {
		t.Fatal("pending header with an empty journal opened without error")
	}
}

func findFree(t *testing.T, g *graph.Graph, ps *points.NodeSet) graph.NodeID {
	t.Helper()
	for n := 0; n < g.NumNodes(); n++ {
		if _, taken := ps.PointAt(graph.NodeID(n)); !taken {
			return graph.NodeID(n)
		}
	}
	t.Fatal("no free node")
	return -1
}

func mustNodeOf(t *testing.T, ps *points.NodeSet, p points.PointID) graph.NodeID {
	t.Helper()
	n, ok := ps.NodeOf(p)
	if !ok {
		t.Fatalf("point %d has no node", p)
	}
	return n
}

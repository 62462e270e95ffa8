package core

import (
	"math/rand"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// syncCountFile wraps a PagedFile and counts Sync calls, so tests can
// observe exactly when the durability knob pushes writes to "stable
// storage" (storage.SyncFile discovers the method by type assertion, the
// same way it finds OSFile.Sync).
type syncCountFile struct {
	storage.PagedFile
	syncs int
}

func (f *syncCountFile) Sync() error {
	f.syncs++
	return nil
}

// runDurableInsert reopens a persisted materialization through
// sync-counting files, optionally turns fsync durability on, and commits
// one insertion. It returns the sync counts seen by the mat file and the
// journal file during the operation.
func runDurableInsert(t *testing.T, durable bool) (matSyncs, journalSyncs int) {
	t.Helper()
	rng := rand.New(rand.NewSource(70))
	g := randNet(t, rng, 30, 40, 0.5)
	ps := randPoints(t, rng, g, 5)
	mat := buildMat(t, NewSearcher(g), ps, 2)

	file := &syncCountFile{PagedFile: storage.NewMemFile(storage.DefaultPageSize)}
	jfile := &syncCountFile{PagedFile: storage.NewMemFile(storage.DefaultPageSize)}
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
	m2, ps2, _, _ := reopenMat(t, file, jfile)
	m2.SetDurable(durable)
	file.syncs, jfile.syncs = 0, 0

	var node graph.NodeID = -1
	for n := 0; n < g.NumNodes(); n++ {
		if _, taken := ps2.PointAt(graph.NodeID(n)); !taken {
			node = graph.NodeID(n)
			break
		}
	}
	if node < 0 {
		t.Fatal("no free node for insertion")
	}
	p, err := ps2.Place(node)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.BeginRepair(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSearcher(g).MatInsert(m2, p, NodeLoc(node)); err != nil {
		t.Fatal(err)
	}
	if err := m2.CommitRepair(p, PointRecord{U: node, V: node}); err != nil {
		t.Fatal(err)
	}
	return file.syncs, jfile.syncs
}

// TestMatDurableFsync checks the opt-in durability level syncs the
// journal per appended record and the materialization file on the commit
// flip.
func TestMatDurableFsync(t *testing.T) {
	matSyncs, journalSyncs := runDurableInsert(t, true)
	if journalSyncs == 0 {
		t.Error("durable maintenance issued no journal syncs")
	}
	if matSyncs == 0 {
		t.Error("durable maintenance issued no materialization-file syncs")
	}
}

// TestMatDurableOffNoSync checks the default write-ordering level never
// syncs: durability stays strictly opt-in.
func TestMatDurableOffNoSync(t *testing.T) {
	matSyncs, journalSyncs := runDurableInsert(t, false)
	if matSyncs != 0 || journalSyncs != 0 {
		t.Errorf("write-ordering maintenance issued syncs (mat %d, journal %d), want none", matSyncs, journalSyncs)
	}
}

// TestMatDurableMemFileSafe checks SetDurable is harmless on plain
// MemFile-backed persistence (SyncFile reports success on files with no
// Sync method) and on a materialization with no persistence at all.
func TestMatDurableMemFileSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := randNet(t, rng, 25, 30, 0.5)
	ps := randPoints(t, rng, g, 4)
	mat := buildMat(t, NewSearcher(g), ps, 2)

	// No persistence: must be a no-op, not a nil dereference.
	mat.SetDurable(true)

	m2, ps2, _, _ := persistedMat(t, mat, ps)
	m2.SetDurable(true)
	pts := ps2.Points()
	node, ok := ps2.NodeOf(pts[0])
	if !ok {
		t.Fatalf("point %d has no node", pts[0])
	}
	if err := m2.BeginRepair(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSearcher(g).MatDelete(m2, pts[0], NodeLoc(node)); err != nil {
		t.Fatal(err)
	}
	if err := m2.RollbackRepair(); err != nil {
		t.Fatal(err)
	}
	m2.SetDurable(false)
}

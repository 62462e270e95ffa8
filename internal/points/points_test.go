package points

import (
	"math/rand"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

func TestNodeSetPlaceAndLookup(t *testing.T) {
	s := NewNodeSet(10)
	p0, err := s.Place(3)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := s.Place(7)
	if err != nil {
		t.Fatal(err)
	}
	if p0 != 0 || p1 != 1 {
		t.Fatalf("ids = %d,%d", p0, p1)
	}
	if got, ok := s.PointAt(3); !ok || got != p0 {
		t.Fatalf("PointAt(3) = %d,%v", got, ok)
	}
	if _, ok := s.PointAt(4); ok {
		t.Fatal("PointAt(4) found a phantom point")
	}
	if n, ok := s.NodeOf(p1); !ok || n != 7 {
		t.Fatalf("NodeOf(%d) = %d,%v", p1, n, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Points(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Points = %v", got)
	}
}

func TestNodeSetErrors(t *testing.T) {
	s := NewNodeSet(4)
	if _, err := s.Place(9); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if _, err := s.Place(2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Place(2); err == nil {
		t.Fatal("double occupancy accepted")
	}
	if err := s.Delete(5); err == nil {
		t.Fatal("deleting unknown point succeeded")
	}
}

func TestNodeSetDelete(t *testing.T) {
	s := NewNodeSet(5)
	p, _ := s.Place(1)
	q, _ := s.Place(2)
	if err := s.Delete(p); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.PointAt(1); ok {
		t.Fatal("deleted point still visible at node")
	}
	if _, ok := s.NodeOf(p); ok {
		t.Fatal("deleted point still resolvable")
	}
	if err := s.Delete(p); err == nil {
		t.Fatal("double delete succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Node 1 can be reused.
	r, err := s.Place(1)
	if err != nil {
		t.Fatal(err)
	}
	if r == p || r == q {
		t.Fatalf("reused id %d", r)
	}
}

func TestExcludeNodeView(t *testing.T) {
	s := NewNodeSet(5)
	p, _ := s.Place(1)
	q, _ := s.Place(2)
	v := ExcludeNode(s, p)
	if _, ok := v.PointAt(1); ok {
		t.Fatal("excluded point visible")
	}
	if got, ok := v.PointAt(2); !ok || got != q {
		t.Fatal("other point hidden by exclusion")
	}
	if _, ok := v.NodeOf(p); ok {
		t.Fatal("excluded point resolvable")
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
	// Hiding a point the set does not have hides nothing from the count.
	if n := ExcludeNode(s, 99).Len(); n != 2 {
		t.Fatalf("Len with an absent point hidden = %d, want 2", n)
	}
	if ExcludeNode(s, NoPoint) != NodeView(s) {
		t.Fatal("ExcludeNode(NoPoint) wrapped needlessly")
	}
}

func TestEdgeSetPlaceSortsAndDeletes(t *testing.T) {
	s := NewEdgeSet()
	// Place out of order, with a reversed edge orientation.
	b, err := s.Place(5, 2, 7.0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Place(2, 5, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := s.PointsOn(5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].ID != a || refs[1].ID != b {
		t.Fatalf("PointsOn = %+v", refs)
	}
	if loc, ok := s.Loc(b); !ok || loc.U != 2 || loc.V != 5 || loc.Pos != 7 {
		t.Fatalf("Loc(%d) = %+v,%v", b, loc, ok)
	}
	if err := s.Delete(a); err != nil {
		t.Fatal(err)
	}
	refs, _ = s.PointsOn(2, 5, refs)
	if len(refs) != 1 || refs[0].ID != b {
		t.Fatalf("after delete PointsOn = %+v", refs)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestEdgeSetErrors(t *testing.T) {
	s := NewEdgeSet()
	if _, err := s.Place(1, 1, 0); err == nil {
		t.Fatal("degenerate edge accepted")
	}
	if err := s.Delete(0); err == nil {
		t.Fatal("deleting unknown point succeeded")
	}
}

func TestExcludeEdgeView(t *testing.T) {
	s := NewEdgeSet()
	a, _ := s.Place(0, 1, 1)
	bid, _ := s.Place(0, 1, 2)
	v := ExcludeEdge(s, a)
	refs, err := v.PointsOn(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0].ID != bid {
		t.Fatalf("PointsOn = %+v", refs)
	}
	if _, ok := v.Loc(a); ok {
		t.Fatal("excluded point resolvable")
	}
	if v.Len() != 1 {
		t.Fatalf("Len = %d", v.Len())
	}
	if n := ExcludeEdge(s, 99).Len(); n != 2 {
		t.Fatalf("Len with an absent point hidden = %d, want 2", n)
	}
}

func buildRandomEdgeSet(t *testing.T, rng *rand.Rand, numEdges, numPoints int) *EdgeSet {
	t.Helper()
	s := NewEdgeSet()
	for i := 0; i < numPoints; i++ {
		u := graph.NodeID(rng.Intn(numEdges))
		v := u + 1
		if _, err := s.Place(u, v, graph.Dist(rng.Int63n(10<<40))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// newPaged is NewPagedEdgeSetBuffer behind a private buffer, for tests; the
// set must close cleanly at cleanup.
func newPaged(t *testing.T, src *EdgeSet, file storage.PagedFile, bufferPages int) *PagedEdgeSet {
	t.Helper()
	paged, err := NewPagedEdgeSetBuffer(src, file, storage.NewBufferPool(bufferPages).Attach("", file, 0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := paged.Close(); err != nil {
			t.Errorf("PagedEdgeSet.Close: %v", err)
		}
	})
	return paged
}

func TestPagedEdgeSetMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mem := buildRandomEdgeSet(t, rng, 50, 400)
	paged := newPaged(t, mem, storage.NewMemFile(256), 8)
	if paged.Len() != mem.Len() {
		t.Fatalf("Len = %d, want %d", paged.Len(), mem.Len())
	}
	var a, b []EdgePointRef
	var err error
	for u := graph.NodeID(0); u < 51; u++ {
		a, _ = mem.PointsOn(u, u+1, a)
		b, err = paged.PointsOn(u, u+1, b)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("edge (%d,%d): %d vs %d points", u, u+1, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("edge (%d,%d) ref %d: %+v vs %+v", u, u+1, i, b[i], a[i])
			}
		}
	}
	for _, p := range mem.Points() {
		la, _ := mem.Loc(p)
		lb, ok := paged.Loc(p)
		if !ok || la != lb {
			t.Fatalf("Loc(%d) = %+v,%v want %+v", p, lb, ok, la)
		}
	}
}

func TestPagedEdgeSetCountsIO(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mem := buildRandomEdgeSet(t, rng, 200, 600)
	paged := newPaged(t, mem, storage.NewMemFile(storage.DefaultPageSize), 0)
	paged.Buffer().ResetStats()
	var buf []EdgePointRef
	var err error
	// Populated edge: one fault per access at capacity 0.
	if buf, err = paged.PointsOn(0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if got := paged.Buffer().Stats().Reads; got != 1 {
		t.Fatalf("faults = %d, want 1", got)
	}
	// Empty edge: directory answers without I/O.
	if buf, err = paged.PointsOn(5000, 5001, buf); err != nil {
		t.Fatal(err)
	}
	if got := paged.Buffer().Stats().Reads; got != 1 {
		t.Fatalf("faults after empty edge = %d, want 1", got)
	}
}

func TestPagedEdgeSetRejectsNonEmptyFile(t *testing.T) {
	f := storage.NewMemFile(256)
	if _, err := f.Append(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewPagedEdgeSetBuffer(NewEdgeSet(), f, storage.NewBufferPool(2).Attach("", f, 0)); err == nil {
		t.Fatal("non-empty file accepted")
	}
}

func TestNodeSetRestore(t *testing.T) {
	s := NewNodeSet(6)
	p0, _ := s.Place(2)
	p1, _ := s.Place(4)
	if err := s.Delete(p0); err != nil {
		t.Fatal(err)
	}
	// Restoring a live point, an out-of-range node, or an occupied node
	// fails; restoring the deleted point under its old id succeeds.
	if err := s.Restore(p1, 1); err == nil {
		t.Fatal("restore of a live point accepted")
	}
	if err := s.Restore(p0, 99); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	if err := s.Restore(p0, 4); err == nil {
		t.Fatal("occupied node accepted")
	}
	if err := s.Restore(p0, 2); err != nil {
		t.Fatal(err)
	}
	if n, ok := s.NodeOf(p0); !ok || n != 2 {
		t.Fatalf("restored point on node %d (ok=%t), want 2", n, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestEdgeSetRestore(t *testing.T) {
	s := NewEdgeSet()
	p0, _ := s.Place(1, 2, 2)
	p1, _ := s.Place(1, 2, 1)
	if err := s.Delete(p0); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(p1, 1, 2, 1); err == nil {
		t.Fatal("restore of a live point accepted")
	}
	if err := s.Restore(p0, 2, 1, 2); err != nil { // non-canonical order allowed
		t.Fatal(err)
	}
	loc, ok := s.Loc(p0)
	if !ok || loc.U != 1 || loc.V != 2 || loc.Pos != 2 {
		t.Fatalf("restored location = %+v (ok=%t)", loc, ok)
	}
	refs, err := s.PointsOn(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].ID != p1 || refs[1].ID != p0 {
		t.Fatalf("PointsOn = %v, want sorted [p1 p0]", refs)
	}
}

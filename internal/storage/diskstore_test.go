package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"graphrnn/internal/graph"
)

func randomGraph(t *testing.T, rng *rand.Rand, n, extraEdges int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	// Spanning chain keeps it connected.
	for i := 1; i < n; i++ {
		if err := b.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < extraEdges; i++ {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		if err := b.AddEdge(u, v, 1+rng.Float64()*9); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func assertSameAdjacency(t *testing.T, g *graph.Graph, s graph.Access) {
	t.Helper()
	var a, b []graph.Edge
	var err error
	for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
		a, err = g.Adjacency(n, a[:0])
		if err != nil {
			t.Fatal(err)
		}
		bCopy := make([]graph.Edge, 0, len(a))
		b, err = s.Adjacency(n, b[:0])
		if err != nil {
			t.Fatalf("disk adjacency of %d: %v", n, err)
		}
		bCopy = append(bCopy, b...)
		if len(a) != len(bCopy) {
			t.Fatalf("node %d: degree %d on disk, want %d", n, len(bCopy), len(a))
		}
		for i := range a {
			if a[i] != bCopy[i] {
				t.Fatalf("node %d edge %d: disk %+v, want %+v", n, i, bCopy[i], a[i])
			}
		}
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(t, rng, 300, 900)
	file := NewMemFile(512) // small pages force multi-page layouts
	s := buildStore(t, g, file, 16)
	assertSameAdjacency(t, g, s)
	if s.NumPages() == 0 {
		t.Fatal("no pages written")
	}
}

func TestDiskStoreHighDegreeOverflow(t *testing.T) {
	// A star graph: the hub's adjacency list cannot fit one small page and
	// must be chained across fragments.
	const n = 600
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		if err := b.AddEdge(0, graph.NodeID(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	file := NewMemFile(256)
	if fragmentRoom(MaxRecordPayload(256)) >= n-1 {
		t.Fatal("test setup: page too large to force fragmentation")
	}
	s := buildStore(t, g, file, 8)
	assertSameAdjacency(t, g, s)
}

func TestDiskStoreIOAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(t, rng, 400, 800)
	file := NewMemFile(DefaultPageSize)
	s := buildStore(t, g, file, 256)
	s.Buffer().ResetStats()
	var buf []graph.Edge
	var err error
	for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
		if buf, err = s.Adjacency(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Buffer().Stats()
	if first.Reads == 0 {
		t.Fatal("no faults recorded on a cold scan")
	}
	if first.Reads > int64(s.NumPages()) {
		t.Fatalf("cold scan faulted %d times for %d pages", first.Reads, s.NumPages())
	}
	// Warm scan: everything fits in 256 pages, so no new faults.
	for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
		if buf, err = s.Adjacency(n, buf); err != nil {
			t.Fatal(err)
		}
	}
	second := s.Buffer().Stats().Sub(first)
	if second.Reads != 0 {
		t.Fatalf("warm scan faulted %d times", second.Reads)
	}
}

func TestDiskStoreBFSLocality(t *testing.T) {
	// On a path graph, BFS order packs consecutive nodes into the same
	// page, so a walk along the path must fault far fewer times than it
	// reads adjacency lists.
	const n = 2000
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		if err := b.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	file := NewMemFile(DefaultPageSize)
	s := buildStore(t, g, file, 1) // single-frame buffer
	s.Buffer().ResetStats()
	var buf []graph.Edge
	for i := 0; i < n; i++ {
		if buf, err = s.Adjacency(graph.NodeID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Buffer().Stats()
	if st.Reads > int64(s.NumPages()+1) {
		t.Fatalf("sequential walk faulted %d times over %d pages: layout has no locality", st.Reads, s.NumPages())
	}
}

func TestBuildDiskStoreRejectsNonEmptyFile(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(4)), 10, 5)
	file := NewMemFile(256)
	if _, err := file.Append(make([]byte, 256)); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildDiskStore(g, file, 4, nil); err == nil {
		t.Fatal("BuildDiskStore accepted a non-empty file")
	}
}

func TestDiskStoreAdjacencyOutOfRange(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(5)), 10, 5)
	s := buildStore(t, g, NewMemFile(256), 4)
	if _, err := s.Adjacency(-1, nil); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := s.Adjacency(10, nil); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// failingFile injects read errors to exercise error propagation.
type failingFile struct {
	*MemFile
	failAfter int
	reads     int
}

func (f *failingFile) Read(id PageID, dst []byte) error {
	f.reads++
	if f.reads > f.failAfter {
		return fmt.Errorf("injected fault on page %d", id)
	}
	return f.MemFile.Read(id, dst)
}

func TestDiskStoreReadErrorPropagates(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(6)), 200, 400)
	mem := NewMemFile(512)
	// Build against the healthy file first, then read it back through
	// the failing one.
	healthy := buildStore(t, g, mem, 0)
	ff := &failingFile{MemFile: mem, failAfter: 3}
	s := &DiskStore{bm: newTenant(t, ff, 0), index: healthy.index, numNodes: g.NumNodes()}
	var sawErr bool
	var buf []graph.Edge
	var err error
	for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
		if buf, err = s.Adjacency(n, buf); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Fatal("injected read fault was swallowed")
	}
}

// TestAdjacencyErrorExits drives Adjacency through its error exits past the
// page read — a slot the page does not have, a fragment that belongs to
// another node — and checks that each leaves the buffer usable: it
// invalidates down to no frame (the buffer holds the whole file, so anything
// kept would stay), and a healthy node reads afterwards.
func TestAdjacencyErrorExits(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(8)), 100, 200)
	s := buildStore(t, g, NewMemFile(512), 64)
	s.index = append([]RecRef(nil), s.index...)
	s.index[3].Slot = 9999  // corrupt slot
	s.index[4] = s.index[5] // owner mismatch
	for _, n := range []graph.NodeID{3, 4} {
		if _, err := s.Adjacency(n, nil); err == nil {
			t.Errorf("node %d: corrupt index entry accepted", n)
		}
		if err := s.Buffer().Invalidate(); err != nil {
			t.Errorf("node %d: %v", n, err)
		}
		if frames := s.Buffer().pool.TenantStats()[0].Frames; frames != 0 {
			t.Errorf("node %d: %d frame(s) survive Invalidate", n, frames)
		}
	}
	if _, err := s.Adjacency(5, nil); err != nil {
		t.Fatalf("healthy node after the faults: %v", err)
	}
}

// buildStore is BuildDiskStore for tests; the store must close cleanly at
// cleanup.
func buildStore(t *testing.T, g *graph.Graph, file PagedFile, bufferPages int) *DiskStore {
	t.Helper()
	s, err := BuildDiskStore(g, file, bufferPages, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("DiskStore.Close: %v", err)
		}
	})
	return s
}

func TestFragmentCodecCorruptSlot(t *testing.T) {
	pb := NewRecordPageBuilder(256)
	rec := appendFragment(nil, 1, InvalidRecRef, []graph.Edge{{To: 2, W: 3}})
	if _, ok := pb.TryAdd(rec); !ok {
		t.Fatal("test setup: fragment does not fit")
	}
	if _, err := ReadRecordSlot(pb.Bytes(), 5); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	// A fragment cut inside its header, and one cut inside an edge.
	for _, n := range []int{fragHeaderSize - 1, len(rec) - 1} {
		if _, _, _, err := ReadFragment(rec[:n], nil); err == nil {
			t.Fatalf("%d-byte fragment accepted", n)
		}
	}
	if !errors.Is(ErrPageOutOfRange, ErrPageOutOfRange) {
		t.Fatal("sentinel identity broken")
	}
}

// TestPageBuilderCapacity fills a page with one full-capacity fragment: it
// is accepted and decodes back, and the next record opens a fresh page. The
// page size itself is bounded: slot offsets and record lengths are 16-bit,
// so NewRecordWriter takes a page of up to 65 535 bytes, refuses a larger
// one or one too small for a single record with an error naming the limit.
func TestPageBuilderCapacity(t *testing.T) {
	if _, err := NewRecordWriter(NewMemFile(MaxPageSize), fragHeaderSize+PairSize); err != nil {
		t.Errorf("the largest addressable page refused: %v", err)
	}
	for _, ps := range []int{MaxPageSize + 1, 1 << 17} {
		if _, err := NewRecordWriter(NewMemFile(ps), fragHeaderSize+PairSize); err == nil || !strings.Contains(err.Error(), "65535") {
			t.Errorf("page size %d: got %v, want an error naming the 65535-byte limit", ps, err)
		}
	}
	if _, err := NewRecordWriter(NewMemFile(8), fragHeaderSize+PairSize); err == nil {
		t.Error("an 8-byte page accepted")
	}

	file := NewMemFile(256)
	w, err := NewRecordWriter(file, fragHeaderSize+PairSize)
	if err != nil {
		t.Fatal(err)
	}
	capEdges := fragmentRoom(w.Free())
	if capEdges != fragmentRoom(MaxRecordPayload(256)) || capEdges < 1 {
		t.Fatalf("empty-page capacity %d, want %d", capEdges, fragmentRoom(MaxRecordPayload(256)))
	}
	edges := make([]graph.Edge, capEdges)
	for i := range edges {
		edges[i] = graph.Edge{To: graph.NodeID(i), W: graph.Dist(i)}
	}
	full, err := w.Add(appendFragment(nil, 9, InvalidRecRef, edges))
	if err != nil || full != (RecRef{Page: 0, Slot: 0}) {
		t.Fatalf("full-capacity fragment: ref %+v, err %v", full, err)
	}
	if fragmentRoom(w.Free()) >= 1 {
		t.Fatal("a full page still offers room for an edge")
	}
	spilled, err := w.Add(appendFragment(nil, 10, InvalidRecRef, []graph.Edge{{To: 1, W: 1}}))
	if err != nil || spilled != (RecRef{Page: 1, Slot: 0}) {
		t.Fatalf("fragment behind a full page: ref %+v, err %v", spilled, err)
	}
	if _, err := w.Add(make([]byte, MaxRecordPayload(256)+1)); err == nil {
		t.Fatal("a record larger than an empty page was accepted")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Round-trip.
	page := make([]byte, 256)
	if err := file.Read(0, page); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadRecordSlot(page, 0)
	if err != nil {
		t.Fatal(err)
	}
	node, next, got, err := ReadFragment(rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if node != 9 || next != InvalidRecRef || len(got) != capEdges {
		t.Fatalf("decoded node=%d next=%+v len=%d", node, next, len(got))
	}
	for i, e := range got {
		if e != edges[i] {
			t.Fatalf("edge %d = %+v, want %+v", i, e, edges[i])
		}
	}
}

// TestHotPathAllocs pins the storage half of the allocation-free expansion
// path: DiskStore.Adjacency allocates nothing once warm — neither when the
// page is cached nor on a steady-state miss, where the evicted frame and
// its page buffer are what the fault reads into.
func TestHotPathAllocs(t *testing.T) {
	g := randomGraph(t, rand.New(rand.NewSource(9)), 600, 1800)
	for name, bufferPages := range map[string]int{"hit": 1024, "miss": 2} {
		t.Run(name, func(t *testing.T) {
			s := buildStore(t, g, NewMemFile(512), bufferPages)
			if name == "miss" && s.NumPages() < 8*bufferPages {
				t.Fatalf("test setup: %d pages do not overflow a %d-page buffer", s.NumPages(), bufferPages)
			}
			var buf []graph.Edge
			scan := func() {
				for n := 0; n < g.NumNodes(); n += 7 {
					var err error
					if buf, err = s.Adjacency(graph.NodeID(n), buf); err != nil {
						t.Fatal(err)
					}
				}
			}
			scan() // grow buf, fill the buffer, stock the free list
			before := s.Buffer().Stats()
			if n := testing.AllocsPerRun(10, scan); n != 0 {
				t.Fatalf("Adjacency allocated %v times per scan, want 0", n)
			}
			d := s.Buffer().Stats().Sub(before)
			if name == "hit" && d.Reads != 0 || name == "miss" && (d.Reads == 0 || d.Evictions != d.Reads) {
				t.Fatalf("scan did not exercise the %s path: %+v", name, d)
			}
		})
	}
}

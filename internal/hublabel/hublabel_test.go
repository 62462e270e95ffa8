package hublabel

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"graphrnn/internal/core"
	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// dijkstra computes single-source distances over an Access.
func dijkstra(g graph.Access, src graph.NodeID) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	st := newDijkstraState(n)
	st.begin()
	st.push(src, 0)
	var err error
	for {
		v, d, ok := st.pop()
		if !ok {
			return dist
		}
		dist[v] = d
		if st.adj, err = g.Adjacency(v, st.adj); err != nil {
			panic(err)
		}
		for _, e := range st.adj {
			st.push(e.To, d+e.W)
		}
	}
}

// testGraphs builds the three generated topologies at test scale.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 11, Nodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	brite, err := gen.Brite(gen.BriteConfig{Seed: 12, Nodes: 400, AvgDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid(gen.GridConfig{Seed: 13, Nodes: 400, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"road": road, "brite": brite, "grid": grid}
}

// TestLabelingDistances checks label-derived distances against Dijkstra on
// every generated topology.
func TestLabelingDistances(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			l, err := buildSeq(g)
			if err != nil {
				t.Fatal(err)
			}
			if l.Directed() {
				t.Fatal("undirected build reports directed")
			}
			rng := rand.New(rand.NewSource(99))
			var ob, ib []Entry
			for trial := 0; trial < 30; trial++ {
				u := graph.NodeID(rng.Intn(g.NumNodes()))
				want := dijkstra(g, u)
				for _, v := range []graph.NodeID{u, graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))} {
					got, err := labelDist(l, u, v, ob, ib)
					if err != nil {
						t.Fatal(err)
					}
					if !sameDist(got, want[v]) {
						t.Fatalf("d(%d,%d) = %v, want %v", u, v, got, want[v])
					}
				}
			}
			if l.AverageLabelSize() <= 0 {
				t.Fatalf("average label size %v", l.AverageLabelSize())
			}
		})
	}
}

// buildSeq is the sequential build: BuildOpt under zero options.
func buildSeq(g graph.Access) (*Labeling, error) {
	l, _, err := BuildOpt(g, BuildOptions{})
	return l, err
}

// labelDist computes d(u→v) from the labels: the minimum of d(u→h) + d(h→v)
// over common hubs, +Inf when the pair shares no hub (disconnected).
func labelDist(src Source, u, v graph.NodeID, outBuf, inBuf []Entry) (float64, error) {
	lu, err := src.OutLabel(u, outBuf)
	if err != nil {
		return 0, err
	}
	lv, err := src.InLabel(v, inBuf)
	if err != nil {
		return 0, err
	}
	return mergeDist(lu, lv), nil
}

// sameDist compares distances with a relative tolerance absorbing float
// association differences between label sums and Dijkstra sums.
func sameDist(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	diff := math.Abs(a - b)
	return diff <= 1e-9*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// testDigraph orients a generated graph with asymmetric weights.
func testDigraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(gen.GridConfig{Seed: seed, Nodes: 225, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	b := graph.NewBuilder(g.NumNodes())
	g.ForEachEdge(func(u, v graph.NodeID, w float64) {
		if err := b.AddArc(u, v, w*(0.5+rng.Float64())); err != nil {
			t.Fatal(err)
		}
		if err := b.AddArc(v, u, w*(0.5+rng.Float64())); err != nil {
			t.Fatal(err)
		}
	})
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDigraphLabelingDistances checks forward/backward labels on a directed
// graph with asymmetric weights.
func TestDigraphLabelingDistances(t *testing.T) {
	d := testDigraph(t, 21)
	l, err := buildSeq(d)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Directed() {
		t.Fatal("digraph build reports undirected")
	}
	rng := rand.New(rand.NewSource(22))
	var ob, ib []Entry
	for trial := 0; trial < 20; trial++ {
		u := graph.NodeID(rng.Intn(d.NumNodes()))
		want := dijkstra(d, u)
		for k := 0; k < 4; k++ {
			v := graph.NodeID(rng.Intn(d.NumNodes()))
			got, err := labelDist(l, u, v, ob, ib)
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(got, want[v]) {
				t.Fatalf("d(%d→%d) = %v, want %v", u, v, got, want[v])
			}
		}
	}
}

// openStore opens f through a private buffer of bufferPages pages.
func openStore(f storage.PagedFile, bufferPages int) (*Store, error) {
	return OpenStoreBuffer(f, storage.NewBufferPool(bufferPages).Attach("", f, 0))
}

// roundTrip persists l into a fresh memory page file and reopens it.
func roundTrip(t *testing.T, l *Labeling, pageSize, bufferPages int) *Store {
	t.Helper()
	f := storage.NewMemFile(pageSize)
	if err := Write(l, f); err != nil {
		t.Fatal(err)
	}
	s, err := openStore(f, bufferPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Store.Close: %v", err)
		}
	})
	return s
}

// TestReadLabelErrorExits drives readLabel through each of its error exits
// — unreadable page, slot out of range, truncated chunk, corrupt chunk — and
// checks that each leaves the buffer usable: it invalidates down to no frame
// (the buffer holds the whole file, so anything kept would stay), and a
// healthy label reads afterwards.
func TestReadLabelErrorExits(t *testing.T) {
	const pageSize = 256
	l, err := buildSeq(testGraphs(t)["road"])
	if err != nil {
		t.Fatal(err)
	}
	// A page whose only record is too short to carry a chunk header.
	short := storage.NewRecordPageBuilder(pageSize)
	if _, ok := short.TryAdd([]byte{0}); !ok {
		t.Fatal("test setup: 1-byte record does not fit")
	}
	f := storage.NewMemFile(pageSize)
	if err := Write(l, f); err != nil {
		t.Fatal(err)
	}
	shortPage, err := f.Append(short.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// A copy of the first label page claiming 65535 entries per chunk.
	page := make([]byte, pageSize)
	if err := f.Read(1, page); err != nil {
		t.Fatal(err)
	}
	rec, err := storage.ReadRecordSlot(page, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec[1], rec[2] = 0xff, 0xff
	overcount, err := f.Append(page)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(f.NumPages())
	s, err := OpenStoreBuffer(f, pool.Attach("", f, 0))
	if err != nil {
		t.Fatal(err)
	}
	for name, at := range map[string]storage.RecRef{
		"page out of range": {Page: storage.PageID(f.NumPages() + 7)},
		"slot out of range": {Page: 1, Slot: 9999},
		"truncated chunk":   {Page: shortPage},
		"corrupt chunk":     {Page: overcount},
	} {
		if _, err := s.readLabel(at, nil); err == nil {
			t.Errorf("%s: readLabel succeeded", name)
		}
		if err := s.Buffer().Invalidate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if frames := pool.TenantStats()[0].Frames; frames != 0 {
			t.Errorf("%s: %d frame(s) survive Invalidate", name, frames)
		}
	}
	if _, err := s.OutLabel(0, nil); err != nil {
		t.Errorf("healthy label after the faults: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestStoreRoundTrip checks that a persisted labeling serves identical
// labels, across page sizes that force chunking, for both directions.
func TestStoreRoundTrip(t *testing.T) {
	graphs := testGraphs(t)
	for name, g := range graphs {
		for _, pageSize := range []int{128, 4096} {
			t.Run(fmt.Sprintf("%s/page%d", name, pageSize), func(t *testing.T) {
				l, err := buildSeq(g)
				if err != nil {
					t.Fatal(err)
				}
				s := roundTrip(t, l, pageSize, 16)
				if s.NumNodes() != l.NumNodes() || s.Directed() != l.Directed() || s.Entries() != l.Entries() {
					t.Fatalf("store header (%d,%v,%d) != labeling (%d,%v,%d)",
						s.NumNodes(), s.Directed(), s.Entries(), l.NumNodes(), l.Directed(), l.Entries())
				}
				var a, b []Entry
				for v := graph.NodeID(0); int(v) < l.NumNodes(); v++ {
					if a, err = l.OutLabel(v, a); err != nil {
						t.Fatal(err)
					}
					if b, err = s.OutLabel(v, b); err != nil {
						t.Fatal(err)
					}
					if !sameEntries(a, b) {
						t.Fatalf("node %d label mismatch: %v vs %v", v, a, b)
					}
				}
				if s.Buffer().Stats().Reads == 0 {
					t.Fatal("store served labels without any physical reads")
				}
				if s.PayloadBytes() < int64(s.Entries())*storage.PairSize {
					t.Fatalf("payload of %d bytes is below %d entries of %d", s.PayloadBytes(), s.Entries(), storage.PairSize)
				}
			})
		}
	}
	// Directed round trip exercises the two-sided directory.
	d := testDigraph(t, 23)
	l, err := buildSeq(d)
	if err != nil {
		t.Fatal(err)
	}
	s := roundTrip(t, l, 256, 8)
	var a, b []Entry
	for v := graph.NodeID(0); int(v) < l.NumNodes(); v++ {
		for side := 0; side < 2; side++ {
			if side == 0 {
				a, _ = l.OutLabel(v, a)
				b, err = s.OutLabel(v, b)
			} else {
				a, _ = l.InLabel(v, a)
				b, err = s.InLabel(v, b)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !sameEntries(a, b) {
				t.Fatalf("node %d side %d mismatch", v, side)
			}
		}
	}
	// Load must reconstruct the full labeling.
	f := storage.NewMemFile(256)
	if err := Write(l, f); err != nil {
		t.Fatal(err)
	}
	l2, err := Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Entries() != l.Entries() || l2.Directed() != l.Directed() {
		t.Fatalf("Load: %d entries directed=%v, want %d/%v", l2.Entries(), l2.Directed(), l.Entries(), l.Directed())
	}
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOpenStoreRejectsGarbage covers the header validation paths.
func TestOpenStoreRejectsGarbage(t *testing.T) {
	f := storage.NewMemFile(4096)
	if _, err := openStore(f, 4); err == nil {
		t.Fatal("empty file accepted")
	}
	if _, err := f.Append(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if _, err := openStore(f, 4); err == nil {
		t.Fatal("zero page accepted as header")
	}
	g, err := gen.Grid(gen.GridConfig{Seed: 1, Nodes: 16, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(l, f); err == nil {
		t.Fatal("Write into non-empty file accepted")
	}
	// Header byte 21 = 1 marked the delta+varint chunk body. Its writer is
	// gone, so patch a fresh file: the refusal has to name cause and remedy.
	f = storage.NewMemFile(4096)
	if err := Write(l, f); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 4096)
	if err := f.Read(0, hdr); err != nil {
		t.Fatal(err)
	}
	hdr[21] = 1
	if err := f.Write(0, hdr); err != nil {
		t.Fatal(err)
	}
	_, err = openStore(f, 4)
	if err == nil || !strings.Contains(err.Error(), "delta+varint") || !strings.Contains(err.Error(), "rebuild with BuildHubLabelIndex") {
		t.Fatalf("header codec 1: got %v, want a refusal naming the removed codec and the rebuild", err)
	}
}

// failingFile fails its n-th mutation (Append and Write counted together)
// and every later one, like a disk that filled up mid-write.
type failingFile struct {
	storage.PagedFile
	left int
}

var errInjected = errors.New("injected write fault")

func (f *failingFile) Append(src []byte) (storage.PageID, error) {
	if f.left--; f.left < 0 {
		return storage.InvalidPage, errInjected
	}
	return f.PagedFile.Append(src)
}

func (f *failingFile) Write(id storage.PageID, src []byte) error {
	if f.left--; f.left < 0 {
		return errInjected
	}
	return f.PagedFile.Write(id, src)
}

// TestWriteFaultLeavesRefusedFile pins what an interrupted Write leaves
// behind: label files have no journal, so the header goes down last and
// every prefix of the write — swept here over every write index of a small
// two-sided labeling — is refused at open, never served.
func TestWriteFaultLeavesRefusedFile(t *testing.T) {
	const pageSize = 128
	l, err := buildSeq(testDigraph(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		mem := storage.NewMemFile(pageSize)
		werr := Write(l, &failingFile{PagedFile: mem, left: n})
		s, err := openStore(mem, 4)
		if werr == nil { // n writes were all of them: the sweep is complete
			if err != nil || n < 4 {
				t.Fatalf("the unfaulted file (%d writes) opened with %v", n, err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if !errors.Is(werr, errInjected) {
			t.Fatalf("fault at write %d: Write returned %v", n, werr)
		}
		if err == nil {
			t.Fatalf("fault at write %d: the remains (%d pages) opened", n, mem.NumPages())
		}
	}
}

// oracle wraps the core brute-force searcher as the ground truth.
func oracle(g graph.Access) *core.Searcher { return core.NewSearcher(g) }

func samePoints(a, b []points.PointID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIndexRkNNAgainstOracle checks monochromatic answers against the
// brute-force oracle on every generated topology, with and without the
// query's own point excluded, for several k.
func TestIndexRkNNAgainstOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			l, err := buildSeq(g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(41))
			ps, err := gen.PlaceNodePoints(rng, g.NumNodes(), g.NumNodes()/10)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := NewIndex(l, 4, pointsOf(ps))
			if err != nil {
				t.Fatal(err)
			}
			sr := oracle(g)
			for _, qp := range ps.Points()[:15] {
				qnode, _ := ps.NodeOf(qp)
				for _, k := range []int{1, 2, 4} {
					// Query at a data point, own point excluded (the
					// paper's workload).
					want, err := sr.Run(core.Request{Algo: core.AlgoBrute, K: k, Points: core.PointSet{Node: points.ExcludeNode(ps, qp)}, Target: core.NodeLoc(qnode)})
					if err != nil {
						t.Fatal(err)
					}
					got, _, err := idx.RkNNExec(nil, qnode, k, qp)
					if err != nil {
						t.Fatal(err)
					}
					if !samePoints(got, want.Points) {
						t.Fatalf("k=%d q=%d hidden: got %v, want %v", k, qp, got, want.Points)
					}
					// Same query with the point visible.
					want, err = sr.Run(core.Request{Algo: core.AlgoBrute, K: k, Points: core.PointSet{Node: ps}, Target: core.NodeLoc(qnode)})
					if err != nil {
						t.Fatal(err)
					}
					got, _, err = idx.RkNNExec(nil, qnode, k, points.NoPoint)
					if err != nil {
						t.Fatal(err)
					}
					if !samePoints(got, want.Points) {
						t.Fatalf("k=%d q=%d visible: got %v, want %v", k, qp, got, want.Points)
					}
				}
			}
			// Queries from plain nodes too.
			for trial := 0; trial < 10; trial++ {
				qnode := graph.NodeID(rng.Intn(g.NumNodes()))
				want, err := sr.Run(core.Request{Algo: core.AlgoBrute, K: 2, Points: core.PointSet{Node: ps}, Target: core.NodeLoc(qnode)})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := idx.RkNNExec(nil, qnode, 2, points.NoPoint)
				if err != nil {
					t.Fatal(err)
				}
				if !samePoints(got, want.Points) {
					t.Fatalf("node %d: got %v, want %v", qnode, got, want.Points)
				}
			}
		})
	}
}

func pointsOf(ps *points.NodeSet) []PointOnNode {
	var out []PointOnNode
	for _, p := range ps.Points() {
		n, _ := ps.NodeOf(p)
		out = append(out, PointOnNode{P: p, Node: n})
	}
	return out
}

// TestIndexContinuousAgainstOracle checks the route variant.
func TestIndexContinuousAgainstOracle(t *testing.T) {
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: 51, Nodes: 400})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(52))
	ps, err := gen.PlaceNodePoints(rng, g.NumNodes(), 40)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(l, 2, pointsOf(ps))
	if err != nil {
		t.Fatal(err)
	}
	sr := oracle(g)
	for trial := 0; trial < 12; trial++ {
		route := gen.RandomWalkRoute(rng, g, 1+rng.Intn(8))
		for _, k := range []int{1, 2} {
			want, err := sr.Run(core.Request{Kind: core.KindContinuous, Algo: core.AlgoBrute, K: k, Points: core.PointSet{Node: ps}, Route: route})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := idx.ContinuousRkNNExec(nil, route, k, points.NoPoint)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got, want.Points) {
				t.Fatalf("route %v k=%d: got %v, want %v", route, k, got, want.Points)
			}
		}
	}
}

// TestIndexBichromaticAgainstOracle checks bRkNN against the oracle,
// including k beyond the materialized maxK (bichromatic is unbounded).
func TestIndexBichromaticAgainstOracle(t *testing.T) {
	g, err := gen.Brite(gen.BriteConfig{Seed: 61, Nodes: 300, AvgDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	sites, err := gen.PlaceNodePoints(rng, g.NumNodes(), 25)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := gen.PlaceNodePoints(rng, g.NumNodes(), 40)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(l, 1, pointsOf(sites))
	if err != nil {
		t.Fatal(err)
	}
	sr := oracle(g)
	for trial := 0; trial < 15; trial++ {
		qnode := graph.NodeID(rng.Intn(g.NumNodes()))
		for _, k := range []int{1, 2, 5} {
			want, err := sr.Run(core.Request{Kind: core.KindBichromatic, Algo: core.AlgoBrute, K: k, Points: core.PointSet{Node: cands}, Sites: core.PointSet{Node: sites}, Target: core.NodeLoc(qnode)})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := idx.BichromaticRkNNExec(nil, cands, qnode, k, points.NoPoint)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got, want.Points) {
				t.Fatalf("q=%d k=%d: got %v, want %v", qnode, k, got, want.Points)
			}
		}
	}
}

// TestIndexMaintenance interleaves inserts and deletes with full answer
// checks: after every mutation a fresh index over the same point set must
// agree with the incrementally maintained one on every query.
func TestIndexMaintenance(t *testing.T) {
	g, err := gen.Grid(gen.GridConfig{Seed: 71, Nodes: 225, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	ps := points.NewNodeSet(g.NumNodes())
	var placed []points.PointID
	for len(placed) < 20 {
		n := graph.NodeID(rng.Intn(g.NumNodes()))
		if p, err := ps.Place(n); err == nil {
			placed = append(placed, p)
		}
	}
	idx, err := NewIndex(l, 3, pointsOf(ps))
	if err != nil {
		t.Fatal(err)
	}
	sr := oracle(g)
	check := func(step string) {
		t.Helper()
		for trial := 0; trial < 8; trial++ {
			qnode := graph.NodeID(rng.Intn(g.NumNodes()))
			for _, k := range []int{1, 3} {
				want, err := sr.Run(core.Request{Algo: core.AlgoBrute, K: k, Points: core.PointSet{Node: ps}, Target: core.NodeLoc(qnode)})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := idx.RkNNExec(nil, qnode, k, points.NoPoint)
				if err != nil {
					t.Fatal(err)
				}
				if !samePoints(got, want.Points) {
					t.Fatalf("%s q=%d k=%d: got %v, want %v", step, qnode, k, got, want.Points)
				}
			}
		}
	}
	check("initial")
	for round := 0; round < 12; round++ {
		if rng.Intn(2) == 0 && len(placed) > 4 {
			i := rng.Intn(len(placed))
			p := placed[i]
			placed = append(placed[:i], placed[i+1:]...)
			if err := ps.Delete(p); err != nil {
				t.Fatal(err)
			}
			if _, err := idx.Delete(p); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d delete %d", round, p))
		} else {
			n := graph.NodeID(rng.Intn(g.NumNodes()))
			p, err := ps.Place(n)
			if err != nil {
				continue // node taken
			}
			placed = append(placed, p)
			if _, err := idx.Insert(p, n); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("round %d insert %d", round, p))
		}
	}
	if idx.Len() != len(placed) {
		t.Fatalf("index holds %d points, want %d", idx.Len(), len(placed))
	}
}

// TestIndexErrors covers the validation paths.
func TestIndexErrors(t *testing.T) {
	g, err := gen.Grid(gen.GridConfig{Seed: 81, Nodes: 64, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIndex(l, 0, nil); err == nil {
		t.Fatal("maxK 0 accepted")
	}
	idx, err := NewIndex(l, 2, []PointOnNode{{P: 0, Node: 1}, {P: 1, Node: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := idx.RkNNExec(nil, 0, 0, points.NoPoint); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, _, err := idx.RkNNExec(nil, -1, 1, points.NoPoint); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, _, err := idx.RkNNExec(nil, 0, 3, points.NoPoint); err == nil {
		t.Fatal("k beyond maxK accepted")
	}
	if _, _, err := idx.ContinuousRkNNExec(nil, nil, 1, points.NoPoint); err == nil {
		t.Fatal("empty route accepted")
	}
	if _, err := idx.Insert(0, 5); err == nil {
		t.Fatal("duplicate point id accepted")
	}
	if _, err := idx.Insert(-1, 5); err == nil {
		t.Fatal("negative point id accepted")
	}
	if _, err := idx.Delete(7); err == nil {
		t.Fatal("delete of missing point accepted")
	}
	// Ids beyond the current range extend the index (trailing deleted ids
	// leave the set's id space ahead of the index).
	if _, err := idx.Insert(5, 3); err != nil {
		t.Fatal(err)
	}
	if n, ok := idx.NodeOf(5); !ok || n != 3 {
		t.Fatalf("NodeOf(5) = %d,%v after gap insert", n, ok)
	}
	if idx.Len() != 3 {
		t.Fatalf("Len = %d after gap insert", idx.Len())
	}
}

// TestIndexOverStore runs the oracle comparison with labels served through
// the paged store, confirming the I/O-accounted path answers identically.
func TestIndexOverStore(t *testing.T) {
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: 91, Nodes: 300})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	s := roundTrip(t, l, 512, 8)
	rng := rand.New(rand.NewSource(92))
	ps, err := gen.PlaceNodePoints(rng, g.NumNodes(), 30)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(s, 2, pointsOf(ps))
	if err != nil {
		t.Fatal(err)
	}
	sr := oracle(g)
	s.Buffer().ResetStats()
	for trial := 0; trial < 10; trial++ {
		qnode := graph.NodeID(rng.Intn(g.NumNodes()))
		want, err := sr.Run(core.Request{Algo: core.AlgoBrute, K: 2, Points: core.PointSet{Node: ps}, Target: core.NodeLoc(qnode)})
		if err != nil {
			t.Fatal(err)
		}
		got, qs, err := idx.RkNNExec(nil, qnode, 2, points.NoPoint)
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(got, want.Points) {
			t.Fatalf("q=%d: got %v, want %v", qnode, got, want.Points)
		}
		if qs.LabelReads == 0 {
			t.Fatal("query reported no label reads")
		}
	}
	if io := s.Buffer().Stats(); io.Reads+io.Hits == 0 {
		t.Fatal("paged store served queries without logical I/O")
	}
}

package hublabel

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/oracle"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// dijkstra computes single-source distances over an Access.
func dijkstra(g graph.Access, src graph.NodeID) []graph.Dist {
	n := g.NumNodes()
	dist := make([]graph.Dist, n)
	for i := range dist {
		dist[i] = graph.Inf
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
func labelDist(src Source, u, v graph.NodeID, outBuf, inBuf []Entry) (graph.Dist, error) {
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

// sameDist compares distances exactly: a label sum and a Dijkstra sum of one
// length are the same count of the graph's quantum (graph.Builder).
func sameDist(a, b graph.Dist) bool { return a == b }

// testDigraph orients a generated graph with asymmetric weights.
func testDigraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.Grid(gen.GridConfig{Seed: seed, Nodes: 225, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed + 1))
	b := graph.NewBuilder(g.NumNodes())
	g.ForEachEdge(func(u, v graph.NodeID, w graph.Dist) {
		if err := b.AddArc(u, v, g.Float(w)*(0.5+rng.Float64())); err != nil {
			t.Fatal(err)
		}
		if err := b.AddArc(v, u, g.Float(w)*(0.5+rng.Float64())); err != nil {
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

// pageStore pages l into a fresh memory file of pageSize pages, served
// through a private buffer of bufferPages pages, and closes the store when
// the test ends.
func pageStore(t *testing.T, l *Labeling, pageSize, bufferPages int) *Store {
	t.Helper()
	f := storage.NewMemFile(pageSize)
	s, err := NewStore(l, f, storage.NewBufferPool(bufferPages).Attach("", f, 0))
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

// brokenFile fails every Read of page bad.
type brokenFile struct {
	storage.PagedFile
	bad storage.PageID
}

var errBrokenPage = errors.New("injected read fault")

func (f *brokenFile) Read(id storage.PageID, dst []byte) error {
	if id == f.bad {
		return errBrokenPage
	}
	return f.PagedFile.Read(id, dst)
}

// TestReadLabelErrorExits drives a label read through each of its error
// exits — node out of range, an unreadable page — and checks that each
// leaves the buffer usable: it invalidates down to no frame (the buffer
// holds the whole file, so anything kept would stay), and the victim's label
// reads back healthy once its page is.
func TestReadLabelErrorExits(t *testing.T) {
	const pageSize = 256
	l, err := buildSeq(testGraphs(t)["road"])
	if err != nil {
		t.Fatal(err)
	}
	f := &brokenFile{PagedFile: storage.NewMemFile(pageSize), bad: storage.InvalidPage}
	pool := storage.NewBufferPool(1 << 10)
	s, err := NewStore(l, f, pool.Attach("", f, 0))
	if err != nil {
		t.Fatal(err)
	}
	victim := graph.NodeID(0)
	for s.out.offsets[victim+1]-s.out.offsets[victim] < 2 {
		victim++
	}
	want, err := l.OutLabel(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := s.entriesAt[0] + int64(s.out.offsets[victim])*int64(s.out.width)
	for _, c := range []struct {
		name    string
		corrupt func() graph.NodeID
		heal    func()
	}{
		{"node out of range", func() graph.NodeID { return graph.NodeID(l.numNodes) }, func() {}},
		{"unreadable page", func() graph.NodeID {
			f.bad = storage.PageID(first / pageSize)
			return victim
		}, func() { f.bad = storage.InvalidPage }},
	} {
		if _, err := s.OutLabel(c.corrupt(), nil); err == nil {
			t.Errorf("%s: the label read succeeded", c.name)
		}
		c.heal()
		if err := s.Buffer().Invalidate(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if frames := pool.TenantStats()[0].Frames; frames != 0 {
			t.Errorf("%s: %d frame(s) survive Invalidate", c.name, frames)
		}
	}
	got, err := s.OutLabel(victim, nil)
	if err != nil || !sameEntries(got, want) {
		t.Errorf("healthy label after the faults: %v (err %v), want %v", got, err, want)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// pages pages l into a fresh in-memory file of pageSize pages and returns
// the file.
func pages(t *testing.T, l *Labeling, pageSize int) *storage.MemFile {
	t.Helper()
	f := storage.NewMemFile(pageSize)
	if _, err := NewStore(l, f, storage.NewBufferPool(1).Attach("", f, 0)); err != nil {
		t.Fatal(err)
	}
	return f
}

// sameFile compares two label files page by page.
func sameFile(t *testing.T, what string, want, got *storage.MemFile) {
	t.Helper()
	if want.NumPages() != got.NumPages() {
		t.Fatalf("%s: %d pages, want %d", what, got.NumPages(), want.NumPages())
	}
	a, b := make([]byte, want.PageSize()), make([]byte, got.PageSize())
	for id := storage.PageID(0); int(id) < want.NumPages(); id++ {
		if err := errors.Join(want.Read(id, a), got.Read(id, b)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: page %d differs", what, id)
		}
	}
}

// sameLabels reads every label of both sides from a and b and compares them
// entry for entry.
func sameLabels(t *testing.T, what string, a, b Source) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.Directed() != b.Directed() {
		t.Fatalf("%s: (%d nodes, directed %v) vs (%d, %v)", what, a.NumNodes(), a.Directed(), b.NumNodes(), b.Directed())
	}
	var x, y []Entry
	var errA, errB error
	for v := graph.NodeID(0); int(v) < a.NumNodes(); v++ {
		for _, in := range []bool{false, true} {
			if in {
				x, errA = a.InLabel(v, x)
				y, errB = b.InLabel(v, y)
			} else {
				x, errA = a.OutLabel(v, x)
				y, errB = b.OutLabel(v, y)
			}
			if err := errors.Join(errA, errB); err != nil {
				t.Fatalf("%s: node %d: %v", what, v, err)
			}
			if !sameEntries(x, y) {
				t.Fatalf("%s: node %d (in %v): %v vs %v", what, v, in, x, y)
			}
		}
	}
}

// TestStoreRoundTrip checks that a paged labeling serves identical labels,
// across page sizes that make labels straddle pages, for both directions,
// and holds the labeling's bytes; that the pages are a pure function of the
// labeling — the sequential labeling paged twice and the 4-worker labeling
// produce the same bytes; and that a store refuses a file that is not
// empty.
func TestStoreRoundTrip(t *testing.T) {
	check := func(t *testing.T, l *Labeling, pageSize int) {
		f := pages(t, l, pageSize)
		sameFile(t, "second paging", f, pages(t, l, pageSize))
		s := pageStore(t, l, pageSize, 16)
		sameLabels(t, "store", l, s)
		if s.Entries() != l.Entries() || s.Bytes() != l.Bytes() || s.AverageLabelSize() != l.AverageLabelSize() {
			t.Fatalf("store counts %d entries in %d bytes, labeling %d in %d", s.Entries(), s.Bytes(), l.Entries(), l.Bytes())
		}
		if s.Buffer().Stats().Reads == 0 {
			t.Fatal("store served labels without any physical reads")
		}
		if _, err := NewStore(l, f, storage.NewBufferPool(1).Attach("", f, 0)); err == nil {
			t.Fatal("a store over a non-empty file accepted")
		}
	}
	for name, g := range testGraphs(t) {
		for _, pageSize := range []int{128, 4096} {
			t.Run(fmt.Sprintf("%s/page%d", name, pageSize), func(t *testing.T) {
				l, err := buildSeq(g)
				if err != nil {
					t.Fatal(err)
				}
				par, _, err := BuildOpt(g, BuildOptions{Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				sameFile(t, "4-worker labeling", pages(t, l, pageSize), pages(t, par, pageSize))
				check(t, l, pageSize)
			})
		}
	}
	// The directed round trip stores two sides.
	l, err := buildSeq(testDigraph(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	check(t, l, 256)
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

// failingFile fails its n-th Append and every later one, like a device that
// filled up mid-write.
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

// TestNewStoreWriteFault: a store over a file whose n-th append fails —
// swept here over every append of a small two-sided labeling — returns the
// injected error, and no store.
func TestNewStoreWriteFault(t *testing.T) {
	const pageSize = 128
	l, err := buildSeq(testDigraph(t, 23))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		f := &failingFile{PagedFile: storage.NewMemFile(pageSize), left: n}
		s, err := NewStore(l, f, storage.NewBufferPool(4).Attach("", f, 0))
		if err == nil { // n appends were all of them: the sweep is complete
			if n < 4 {
				t.Fatalf("the unfaulted store took only %d appends", n)
			}
			sameLabels(t, "unfaulted store", l, s)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return
		}
		if !errors.Is(err, errInjected) || s != nil {
			t.Fatalf("fault at append %d: NewStore returned (%v, %v)", n, s, err)
		}
	}
}

// truth answers by the definition (internal/oracle) over a graph and the
// points of a set, as point ids.
type truth struct {
	o   *oracle.Oracle
	ids []points.PointID
}

// newTruth builds the oracle over g for the points of ps but hidden, each
// competing with the others — or, given sites, with the sites.
func newTruth(g graph.Access, ps *points.NodeSet, hidden points.PointID, sites *points.NodeSet) truth {
	var arcs []oracle.Arc
	var adj []graph.Edge
	for u := range g.NumNodes() {
		adj, _ = g.Adjacency(graph.NodeID(u), adj) // every graph here is in memory
		for _, e := range adj {
			arcs = append(arcs, oracle.Arc{U: u, V: int(e.To), W: math.Ldexp(float64(e.W), g.LogQuantum())})
		}
	}
	locs := func(s *points.NodeSet, hidden points.PointID) ([]points.PointID, []oracle.Loc) {
		ids, at := []points.PointID{}, []oracle.Loc{}
		for _, p := range s.Points() {
			if n, _ := s.NodeOf(p); p != hidden {
				ids, at = append(ids, p), append(at, oracle.Loc{U: int(n), V: int(n)})
			}
		}
		return ids, at
	}
	ids, at := locs(ps, hidden)
	var siteAt []oracle.Loc // nil: monochromatic
	if sites != nil {
		_, siteAt = locs(sites, points.NoPoint)
	}
	return truth{oracle.New(g.NumNodes(), arcs, at, siteAt), ids}
}

// members answers depth k at the nodes of route: RkNN of one node, the
// continuous query of several.
func (tr truth) members(k int, route ...graph.NodeID) []points.PointID {
	at := make([]oracle.Loc, len(route))
	for i, n := range route {
		at[i] = oracle.Loc{U: int(n), V: int(n)}
	}
	var out []points.PointID
	for _, i := range tr.o.Members(k, at...) {
		out = append(out, tr.ids[i])
	}
	return out
}

// probe holds run to the oracle at every probe of tr (oracle.Probes): every
// k of ks at every node, then — unless tr is bichromatic — at every point
// hidden at its own node and along every route. run answers the query at
// q[0], or along q for a route, with hidden left out.
func (tr truth) probe(t *testing.T, ks []int, routes [][]graph.NodeID, run func(k int, q []graph.NodeID, hidden points.PointID) ([]points.PointID, error)) {
	t.Helper()
	rs := make([][]int, len(routes))
	for i, r := range routes {
		for _, n := range r {
			rs[i] = append(rs[i], int(n))
		}
	}
	err := tr.o.Probes(ks, 0, rs, func(pr oracle.Probe) error {
		q, hidden := []graph.NodeID{graph.NodeID(pr.At.U)}, points.NoPoint
		if pr.Route >= 0 {
			q = routes[pr.Route]
		}
		if pr.Hidden >= 0 {
			hidden = tr.ids[pr.Hidden]
		}
		want := make([]points.PointID, len(pr.Want))
		for i, j := range pr.Want {
			want[i] = tr.ids[j]
		}
		if got, err := run(pr.K, q, hidden); err != nil || !samePoints(got, want) {
			return fmt.Errorf("k=%d at %v hiding %d: got %v (err %v), oracle %v", pr.K, q, hidden, got, err, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

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

func pointsOf(ps *points.NodeSet) []PointOnNode {
	var out []PointOnNode
	for _, p := range ps.Points() {
		n, _ := ps.NodeOf(p)
		out = append(out, PointOnNode{P: p, Node: n})
	}
	return out
}

// TestIndexRkNNAgainstOracle checks monochromatic answers against the
// oracle on every generated topology at every node, for several k, with
// nothing hidden and at every point's node with that point hidden (the
// paper's workload).
func TestIndexRkNNAgainstOracle(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			l, err := buildSeq(g)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := gen.PlaceNodePoints(rand.New(rand.NewSource(41)), g.NumNodes(), g.NumNodes()/10)
			if err != nil {
				t.Fatal(err)
			}
			idx, err := NewIndex(l, 4, pointsOf(ps))
			if err != nil {
				t.Fatal(err)
			}
			newTruth(g, ps, points.NoPoint, nil).probe(t, []int{1, 2, 4}, nil, func(k int, q []graph.NodeID, hidden points.PointID) ([]points.PointID, error) {
				got, _, err := idx.RkNNExec(nil, q[0], k, hidden)
				return got, err
			})
		})
	}
}

// TestIndexContinuousAgainstOracle checks the route variant: one-node
// routes at every node and every point's node, and 40 random walks.
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
	var routes [][]graph.NodeID
	for range 40 {
		routes = append(routes, gen.RandomWalkRoute(rng, g, 1+rng.Intn(8)))
	}
	newTruth(g, ps, points.NoPoint, nil).probe(t, []int{1, 2}, routes, func(k int, q []graph.NodeID, hidden points.PointID) ([]points.PointID, error) {
		got, _, err := idx.ContinuousRkNNExec(nil, q, k, hidden)
		return got, err
	})
}

// TestIndexBichromaticAgainstOracle checks bRkNN against the oracle at
// every node, including k beyond the materialized maxK (bichromatic is
// unbounded).
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
	newTruth(g, cands, points.NoPoint, sites).probe(t, []int{1, 2, 5}, nil, func(k int, q []graph.NodeID, hidden points.PointID) ([]points.PointID, error) {
		got, _, err := idx.BichromaticRkNNExec(nil, cands, q[0], k, hidden)
		return got, err
	})
}

// TestIndexMaintenance interleaves inserts and deletes with full answer
// checks: after every mutation the incrementally maintained index answers
// like the oracle at every node.
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
	check := func(step string) {
		t.Helper()
		newTruth(g, ps, points.NoPoint, nil).probe(t, []int{1, 3}, nil, func(k int, q []graph.NodeID, hidden points.PointID) ([]points.PointID, error) {
			got, _, err := idx.RkNNExec(nil, q[0], k, hidden)
			return got, err
		})
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
	s := pageStore(t, l, 512, 8)
	rng := rand.New(rand.NewSource(92))
	ps, err := gen.PlaceNodePoints(rng, g.NumNodes(), 30)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(s, 2, pointsOf(ps))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTruth(g, ps, points.NoPoint, nil)
	s.Buffer().ResetStats()
	for trial := 0; trial < 10; trial++ {
		qnode := graph.NodeID(rng.Intn(g.NumNodes()))
		got, qs, err := idx.RkNNExec(nil, qnode, 2, points.NoPoint)
		if err != nil {
			t.Fatal(err)
		}
		if want := tr.members(2, qnode); !samePoints(got, want) {
			t.Fatalf("q=%d: got %v, want %v", qnode, got, want)
		}
		if qs.LabelReads == 0 {
			t.Fatal("query reported no label reads")
		}
	}
	if io := s.Buffer().Stats(); io.Reads+io.Hits == 0 {
		t.Fatal("paged store served queries without logical I/O")
	}
}

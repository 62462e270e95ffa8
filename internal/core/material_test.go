package core

import (
	"math/rand"
	"sort"
	"testing"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/oracle"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// bruteLists computes, independently of the library's expansion code, the
// canonical top-cap materialized list of every node: a full Dijkstra from
// each node over an adjacency map, collecting point distances.
func bruteLists(t *testing.T, g *graph.Graph, ps points.NodeView, cap int) [][]MatEntry {
	t.Helper()
	n := g.NumNodes()
	out := make([][]MatEntry, n)
	var adj []graph.Edge
	for src := 0; src < n; src++ {
		dist := make([]graph.Dist, n)
		done := make([]bool, n)
		for i := range dist {
			dist[i] = graph.Inf
		}
		dist[src] = 0
		for {
			best, bd := -1, graph.Inf
			for i := 0; i < n; i++ {
				if !done[i] && dist[i] < bd {
					best, bd = i, dist[i]
				}
			}
			if best < 0 {
				break
			}
			done[best] = true
			adj, _ = g.Adjacency(graph.NodeID(best), adj)
			for _, e := range adj {
				if nd := bd + e.W; nd < dist[e.To] {
					dist[e.To] = nd
				}
			}
		}
		var lst []MatEntry
		for _, p := range ps.Points() {
			pn, ok := ps.NodeOf(p)
			if !ok {
				continue
			}
			if dist[pn] != graph.Inf {
				lst = append(lst, MatEntry{P: p, D: dist[pn]})
			}
		}
		sort.Slice(lst, func(i, j int) bool {
			return entryLess(lst[i].D, lst[i].P, lst[j].D, lst[j].P)
		})
		if len(lst) > cap {
			lst = lst[:cap]
		}
		out[src] = lst
	}
	return out
}

func newMemMatFile() *storage.MemFile { return storage.NewMemFile(storage.DefaultPageSize) }

// matBuild is MatBuildBuffer reading the lists back through a private
// buffer of bufferPages pages.
func matBuild(s *Searcher, ps PointSet, maxK int, file storage.PagedFile, bufferPages int, order []graph.NodeID) (*Materialized, error) {
	return s.MatBuildBuffer(ps, maxK, file, storage.NewBufferPool(bufferPages).Attach("", file, 0), order)
}

func buildMat(t *testing.T, s *Searcher, ps points.NodeView, maxK int) *Materialized {
	t.Helper()
	mat, err := matBuild(s, PointSet{Node: ps}, maxK, storage.NewMemFile(storage.DefaultPageSize), 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := mat.Close(); err != nil {
			t.Errorf("Materialized.Close: %v", err)
		}
	})
	return mat
}

func assertMatEqual(t *testing.T, mat *Materialized, want [][]MatEntry, context string) {
	t.Helper()
	var lst []MatEntry
	var err error
	for n := range want {
		lst, err = mat.List(graph.NodeID(n), lst)
		if err != nil {
			t.Fatalf("%s: List(%d): %v", context, n, err)
		}
		if len(lst) != len(want[n]) {
			t.Fatalf("%s: node %d list = %v, want %v", context, n, lst, want[n])
		}
		for i := range lst {
			if lst[i] != want[n][i] {
				t.Fatalf("%s: node %d list = %v, want %v", context, n, lst, want[n])
			}
		}
	}
}

func TestMatBuildMatchesBruteLists(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for it := 0; it < iters; it++ {
		net := randTestNet(t, rng)
		s := NewSearcher(net.g)
		maxK := 1 + rng.Intn(3)
		mat := buildMat(t, s, net.ps, maxK)
		want := bruteLists(t, net.g, net.ps, maxK+1)
		assertMatEqual(t, mat, want, "build")
	}
}

func TestMatBuildPaperNetwork(t *testing.T) {
	g, ps, _ := paperGraph(t)
	s := NewSearcher(g)
	mat := buildMat(t, s, ps, 1)
	// Own-node points appear first at distance zero (K+1 = 2 entries).
	var lst []MatEntry
	for p, node := range map[points.PointID]graph.NodeID{0: 5, 1: 4, 2: 6} {
		var err error
		lst, err = mat.List(node, lst)
		if err != nil {
			t.Fatal(err)
		}
		if len(lst) == 0 || lst[0] != (MatEntry{P: p, D: 0}) {
			t.Fatalf("list(%d) = %v, want own point %d at distance 0 first", node, lst, p)
		}
	}
	want := bruteLists(t, g, ps, 2)
	assertMatEqual(t, mat, want, "paper network")
}

func TestMatBuildValidation(t *testing.T) {
	g, ps, _ := paperGraph(t)
	s := NewSearcher(g)
	if _, err := matBuild(s, PointSet{Node: ps}, 0, storage.NewMemFile(512), 4, nil); err == nil {
		t.Fatal("maxK=0 accepted")
	}
	f := storage.NewMemFile(512)
	if _, err := f.Append(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if _, err := matBuild(s, PointSet{Node: ps}, 1, f, 4, nil); err == nil {
		t.Fatal("non-empty file accepted")
	}
	if _, err := matBuild(s, PointSet{Node: ps}, 1000, storage.NewMemFile(512), 4, nil); err == nil {
		t.Fatal("oversized K accepted for tiny pages")
	}
}

// TestMatInsertMatchesRebuild drives random insertion sequences and checks
// the maintained lists stay bit-identical to a from-scratch rebuild.
func TestMatInsertMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for it := 0; it < iters; it++ {
		g := randNet(t, rng, 15+rng.Intn(40), rng.Intn(80), 0.5)
		s := NewSearcher(g)
		ps := points.NewNodeSet(g.NumNodes())
		// Start with a few points.
		perm := rng.Perm(g.NumNodes())
		cursor := 0
		for ; cursor < 3; cursor++ {
			if _, err := ps.Place(graph.NodeID(perm[cursor])); err != nil {
				t.Fatal(err)
			}
		}
		maxK := 1 + rng.Intn(3)
		mat := buildMat(t, s, ps, maxK)
		// Insert up to 5 more points one by one.
		for step := 0; step < 5 && cursor < len(perm); step++ {
			node := graph.NodeID(perm[cursor])
			cursor++
			p, err := ps.Place(node)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.MatInsert(mat, p, NodeLoc(node)); err != nil {
				t.Fatal(err)
			}
			want := bruteLists(t, g, ps, maxK+1)
			assertMatEqual(t, mat, want, "after insert")
		}
	}
}

// TestMatDeleteMatchesRebuild drives random deletion sequences, including
// cascades where the replacement entries originate inside the affected
// region, and checks against a rebuild.
func TestMatDeleteMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	iters := 40
	if testing.Short() {
		iters = 10
	}
	for it := 0; it < iters; it++ {
		g := randNet(t, rng, 15+rng.Intn(40), rng.Intn(80), 0.5)
		s := NewSearcher(g)
		count := 4 + rng.Intn(6)
		ps := randPoints(t, rng, g, count)
		maxK := 1 + rng.Intn(3)
		mat := buildMat(t, s, ps, maxK)
		pts := ps.Points()
		rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		deletions := 1 + rng.Intn(3)
		for step := 0; step < deletions && step < len(pts)-1; step++ {
			p := pts[step]
			node, _ := ps.NodeOf(p)
			if err := ps.Delete(p); err != nil {
				t.Fatal(err)
			}
			if _, err := s.MatDelete(mat, p, NodeLoc(node)); err != nil {
				t.Fatal(err)
			}
			want := bruteLists(t, g, ps, maxK+1)
			assertMatEqual(t, mat, want, "after delete")
		}
	}
}

// TestMatMixedUpdates interleaves inserts and deletes.
func TestMatMixedUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for it := 0; it < 25; it++ {
		g := randNet(t, rng, 20+rng.Intn(30), rng.Intn(60), 0.5)
		s := NewSearcher(g)
		ps := randPoints(t, rng, g, 5)
		maxK := 1 + rng.Intn(2)
		mat := buildMat(t, s, ps, maxK)
		for step := 0; step < 8; step++ {
			pts := ps.Points()
			if rng.Intn(2) == 0 && len(pts) > 1 {
				p := pts[rng.Intn(len(pts))]
				node, _ := ps.NodeOf(p)
				if err := ps.Delete(p); err != nil {
					t.Fatal(err)
				}
				if _, err := s.MatDelete(mat, p, NodeLoc(node)); err != nil {
					t.Fatal(err)
				}
			} else {
				node := graph.NodeID(rng.Intn(g.NumNodes()))
				if _, occupied := ps.PointAt(node); occupied {
					continue
				}
				p, err := ps.Place(node)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.MatInsert(mat, p, NodeLoc(node)); err != nil {
					t.Fatal(err)
				}
			}
			want := bruteLists(t, g, ps, maxK+1)
			assertMatEqual(t, mat, want, "after mixed update")
		}
	}
}

func TestMatUpdateIOIsAccounted(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	g := randNet(t, rng, 60, 120, 0)
	s := NewSearcher(g)
	ps := randPoints(t, rng, g, 6)
	mat := buildMat(t, s, ps, 2)
	mat.Buffer().ResetStats()

	node := graph.NodeID(0)
	if _, occupied := ps.PointAt(node); occupied {
		node = 1
	}
	p, err := ps.Place(node)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.MatInsert(mat, p, NodeLoc(node)); err != nil {
		t.Fatal(err)
	}
	if err := mat.Flush(); err != nil {
		t.Fatal(err)
	}
	st := mat.Buffer().Stats()
	if st.Reads == 0 && st.Hits == 0 {
		t.Fatalf("insert performed no list reads: %+v", st)
	}
	if st.Writes == 0 {
		t.Fatalf("insert flushed no writes: %+v", st)
	}
}

// TestEagerMAgreesWithBrute is the eager-M correctness property test,
// including hidden (query co-located) points that the K+1-th entry must
// absorb.
func TestEagerMAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for range 15 {
		net := randTestNet(t, rng)
		maxK := 1 + rng.Intn(4)
		mat := buildMat(t, NewSearcher(net.g), net.ps, maxK)
		mustMatchOracle(t, oracleCase{g: net.g, ps: PointSet{Node: net.ps}, mat: mat, algos: []Algo{AlgoEagerM}, ks: oracle.Depths(maxK)})
	}
}

func TestEagerMValidation(t *testing.T) {
	g, ps, q := paperGraph(t)
	s := NewSearcher(g)
	mat := buildMat(t, s, ps, 2)
	if _, err := runRNN(s, AlgoEagerM, ps, mat, q, 3); err == nil {
		t.Fatal("k > MaxK accepted")
	}
	if _, err := runRNN(s, AlgoEagerM, ps, nil, q, 1); err == nil {
		t.Fatal("nil materialized accepted")
	}
}

// TestLazyEPAgreesWithBrute is the lazy-EP correctness property test.
func TestLazyEPAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for range 12 {
		net := randTestNet(t, rng)
		mustMatchOracle(t, oracleCase{g: net.g, ps: PointSet{Node: net.ps}, algos: []Algo{AlgoLazyEP}, ks: oracle.Depths(4)})
	}
}

func TestLazyEPFig12Scenario(t *testing.T) {
	// Fig 12: a path q=n1 - n2(p1) - n3 - n4 - ... where plain lazy would
	// expand past n4 but lazy-EP's H' marks n4 as closer to p1 and prunes.
	const n = 30
	b := graph.NewBuilder(n)
	if err := b.AddEdge(0, 1, 1); err != nil { // n1-n2
		t.Fatal(err)
	}
	if err := b.AddEdge(0, 2, 3); err != nil { // n1-n3
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3, 1); err != nil { // n3-n4
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 3, 2); err != nil { // n2-n4 (so d(p1,n4)=2 < d(q,n4)=4)
		t.Fatal(err)
	}
	// Long tail beyond n4 that must not be expanded.
	for i := 4; i < n; i++ {
		if err := b.AddEdge(graph.NodeID(i-1), graph.NodeID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := points.NewNodeSet(n)
	p1, _ := ps.Place(1)
	s := NewSearcher(g)
	r, err := runRNN(s, AlgoLazyEP, ps, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 1 || r.Points[0] != p1 {
		t.Fatalf("result = %v, want [p1]", r.Points)
	}
	// The tail has ~26 nodes; lazy-EP must stop at n4, so the main
	// expansion pops only a handful of nodes.
	if r.Stats.NodesExpanded > 6 {
		t.Fatalf("lazy-EP expanded %d nodes; extended pruning failed", r.Stats.NodesExpanded)
	}
	// Plain lazy expands far beyond (its verification range d(p1,q)=1
	// cannot mark n4).
	rl, err := runRNN(s, AlgoLazy, ps, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Stats.NodesExpanded <= r.Stats.NodesExpanded {
		t.Fatalf("expected lazy (%d nodes) to expand more than lazy-EP (%d nodes)",
			rl.Stats.NodesExpanded, r.Stats.NodesExpanded)
	}
}

// TestContinuousAgreesWithBrute: every algorithm answers random-walk
// routes (Fig 19) like the oracle.
func TestContinuousAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for range 12 {
		net := randTestNet(t, rng)
		maxK := 1 + rng.Intn(3)
		mat := buildMat(t, NewSearcher(net.g), net.ps, maxK)
		var routes [][]graph.NodeID
		for range 3 {
			routes = append(routes, gen.RandomWalkRoute(rng, net.g, 1+rng.Intn(8)))
		}
		mustMatchOracle(t, oracleCase{g: net.g, ps: PointSet{Node: net.ps}, mat: mat,
			algos: []Algo{AlgoEager, AlgoLazy, AlgoEagerM, AlgoLazyEP, AlgoBrute}, ks: oracle.Depths(maxK), routes: routes})
	}
}

// TestHotPathAllocs pins Materialized.List as allocation-free once warm,
// both with every list page cached and with a buffer small enough that the
// scan keeps faulting pages into recycled frames.
func TestHotPathAllocs(t *testing.T) {
	net := randTestNet(t, rand.New(rand.NewSource(77)))
	s := NewSearcher(net.g)
	for name, bufferPages := range map[string]int{"hit": 64, "miss": 1} {
		t.Run(name, func(t *testing.T) {
			mat, err := matBuild(s, PointSet{Node: net.ps}, 2, storage.NewMemFile(128), bufferPages, nil)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := mat.Close(); err != nil {
					t.Errorf("Materialized.Close: %v", err)
				}
			})
			var lst []MatEntry
			scan := func() {
				for n := 0; n < net.g.NumNodes(); n++ {
					var err error
					if lst, err = mat.List(graph.NodeID(n), lst); err != nil {
						t.Fatal(err)
					}
				}
			}
			scan()
			before := mat.Buffer().Stats()
			if n := testing.AllocsPerRun(10, scan); n != 0 {
				t.Fatalf("List allocated %v times per scan, want 0", n)
			}
			if d := mat.Buffer().Stats().Sub(before); (name == "miss") != (d.Reads > 0) {
				t.Fatalf("scan did not exercise the %s path: %+v", name, d)
			}
		})
	}
}

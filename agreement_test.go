package graphrnn_test

// The agreement harness: every substrate that serves a shape, at every
// node, for every k, against internal/oracle — which answers by the
// definition and shares no code with what it judges (CheckAgreement,
// export_test.go).

import (
	"context"
	"flag"
	"math/rand"
	"testing"
	"time"

	"graphrnn"
	"graphrnn/internal/oracle"
)

// agreeNet builds a connected random network of n nodes: a random spanning
// tree plus extra edges, with unit weights (the ties of co-author graphs)
// or half-integer ones.
func agreeNet(t testing.TB, rng *rand.Rand, n, extra int, unit bool) *graphrnn.Graph {
	t.Helper()
	w := func() float64 {
		if unit {
			return 1
		}
		return float64(1+rng.Intn(20)) / 2
	}
	gb := graphrnn.NewGraphBuilder(n)
	for i := 1; i < n; i++ {
		if err := gb.AddEdge(graphrnn.NodeID(rng.Intn(i)), graphrnn.NodeID(i), w()); err != nil {
			t.Fatal(err)
		}
	}
	for range extra {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			if err := gb.AddEdge(graphrnn.NodeID(u), graphrnn.NodeID(v), w()); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// openEdges opens a DB over n nodes joined by the edges {u, v, w}.
func openEdges(t testing.TB, n int, edges ...[3]float64) *graphrnn.DB {
	t.Helper()
	gb := graphrnn.NewGraphBuilder(n)
	for _, e := range edges {
		if err := gb.AddEdge(graphrnn.NodeID(e[0]), graphrnn.NodeID(e[1]), e[2]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// nodeSubstrates returns the substrates that serve ps: the expansions,
// brute force, the planner and, at maxK, a hub-label index (labels as hub
// says) and on undirected graphs a materialization. Over a site set these
// are the substrates of the bichromatic kind.
func nodeSubstrates(t testing.TB, db *graphrnn.DB, ps *graphrnn.NodePoints, maxK int, hub *graphrnn.HubLabelOptions) map[string]graphrnn.Algorithm {
	t.Helper()
	algos := map[string]graphrnn.Algorithm{
		"eager": graphrnn.Eager(), "lazy-EP": graphrnn.LazyEP(), "brute": graphrnn.BruteForce(), "auto": graphrnn.Auto(),
	}
	idx, err := db.BuildHubLabelIndex(ps, maxK, hub)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	algos["hub-label"] = graphrnn.HubLabel(idx)
	if !db.Graph().Directed() {
		mat, err := db.MaterializeNodePoints(ps, maxK, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { mat.Close() })
		algos["lazy"], algos["eager-M"] = graphrnn.Lazy(), graphrnn.EagerM(mat)
	}
	return algos
}

// edgeSubstrates is nodeSubstrates for an edge-resident set: no hub labels.
func edgeSubstrates(t testing.TB, db *graphrnn.DB, ps *graphrnn.EdgePoints, maxK int) map[string]graphrnn.Algorithm {
	t.Helper()
	mat, err := db.MaterializeEdgePoints(ps, maxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mat.Close() })
	return map[string]graphrnn.Algorithm{
		"eager": graphrnn.Eager(), "lazy": graphrnn.Lazy(), "lazy-EP": graphrnn.LazyEP(),
		"eager-M": graphrnn.EagerM(mat), "brute": graphrnn.BruteForce(), "auto": graphrnn.Auto(),
	}
}

// randRoutes returns two routes of up to four random nodes each.
func randRoutes(rng *rand.Rand, n int) [][]graphrnn.NodeID {
	routes := make([][]graphrnn.NodeID, 2)
	for i := range routes {
		for range 1 + rng.Intn(4) {
			routes[i] = append(routes[i], graphrnn.NodeID(rng.Intn(n)))
		}
	}
	return routes
}

// randEdgePoints places count points at random positions on the first
// spread edges of g (all of them when spread is 0).
func randEdgePoints(t testing.TB, rng *rand.Rand, db *graphrnn.DB, count, spread int) *graphrnn.EdgePoints {
	t.Helper()
	type edge struct {
		u, v graphrnn.NodeID
		w    float64
	}
	var edges []edge
	db.Graph().Edges(func(u, v graphrnn.NodeID, w float64) { edges = append(edges, edge{u, v, w}) })
	if spread == 0 || spread > len(edges) {
		spread = len(edges)
	}
	ps := db.NewEdgePoints()
	for range count {
		e := edges[rng.Intn(spread)]
		if _, err := ps.Place(e.u, e.v, rng.Float64()*e.w); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

// churn inserts a point on a free node and removes a random one through the
// set's one maintenance path, which repairs every substrate over it. After
// each step it calls after, if given.
func churn(t testing.TB, rng *rand.Rand, db *graphrnn.DB, ps *graphrnn.NodePoints, after func(when string)) {
	t.Helper()
	if after == nil {
		after = func(string) {}
	}
	ctx := context.Background()
	for _, n := range rng.Perm(db.Graph().NumNodes()) {
		if _, taken := ps.PointAt(graphrnn.NodeID(n)); !taken {
			if _, _, err := ps.Insert(ctx, graphrnn.NodeLocation(graphrnn.NodeID(n)), nil); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	after("after insert")
	pts := ps.Points()
	if _, err := ps.Remove(ctx, pts[rng.Intn(len(pts))], nil); err != nil {
		t.Fatal(err)
	}
	after("after remove")
}

// TestAgreement runs the harness over the random input families: networks
// with node points (unit and half-integer weights, k up to |P|+1, sites,
// routes, Insert / Remove) and edge points (random, dense on three edges, on
// endpoints and duplicated), and three hand-built ties. One-way networks are
// TestDirectedRunAgreesWithBrute's inputs, the generator graphs
// TestPublicAPIAllAlgorithmsAgree's and TestHubLabelAgainstOracle's.
func TestAgreement(t *testing.T) {
	checks := 0
	check := func(t *testing.T, a graphrnn.Agreement) {
		t.Helper()
		checks += graphrnn.CheckAgreement(t, a)
	}
	t.Run("node-nets", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for range 12 {
			n := 12 + rng.Intn(30)
			db, err := graphrnn.Open(agreeNet(t, rng, n, rng.Intn(2*n), rng.Intn(2) == 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			ps := placeOnRandomNodes(t, rng, db, 1+rng.Intn(n/2))
			sites := placeOnRandomNodes(t, rng, db, 1+rng.Intn(n/3))
			maxK := 1 + rng.Intn(3)
			algos := nodeSubstrates(t, db, ps, maxK, nil)
			mono := graphrnn.Agreement{Points: ps, Algos: algos, Ks: oracle.Depths(maxK, ps.Len()+1), Routes: randRoutes(rng, n)}
			check(t, mono)
			check(t, graphrnn.Agreement{Points: ps, Sites: sites, Algos: nodeSubstrates(t, db, sites, maxK, nil), Ks: oracle.Depths(maxK + 1)})
			churn(t, rng, db, ps, nil)
			check(t, mono)
		}
	})
	t.Run("edge-nets", func(t *testing.T) {
		rng := rand.New(rand.NewSource(70))
		for it := range 18 {
			n := 6 + rng.Intn(30)
			db, err := graphrnn.Open(agreeNet(t, rng, n, rng.Intn(n), it%3 == 0), nil)
			if err != nil {
				t.Fatal(err)
			}
			maxK := 1 + rng.Intn(3)
			var ps *graphrnn.EdgePoints
			switch it % 3 {
			case 0, 1: // random positions; dense: many points on at most three edges
				ps = randEdgePoints(t, rng, db, 3+rng.Intn(n/2+2), (it%3)*3)
			case 2: // points on edge endpoints, each of them twice
				ps = db.NewEdgePoints()
				db.Graph().Edges(func(u, v graphrnn.NodeID, w float64) {
					if rng.Intn(4) == 0 {
						pos := w * float64(rng.Intn(2))
						for range 2 {
							if _, err := ps.Place(u, v, pos); err != nil {
								t.Fatal(err)
							}
						}
					}
				})
				if ps.Len() == 0 {
					continue
				}
			}
			check(t, graphrnn.Agreement{Points: ps, Algos: edgeSubstrates(t, db, ps, maxK), Ks: oracle.Depths(maxK), Routes: randRoutes(rng, n), InsideEdges: true})
			sites := randEdgePoints(t, rng, db, 1+rng.Intn(n/3+2), 0)
			check(t, graphrnn.Agreement{Points: ps, Sites: sites, Algos: edgeSubstrates(t, db, sites, maxK), Ks: oracle.Depths(maxK), InsideEdges: true})
		}
	})
	t.Run("lazy-tie", func(t *testing.T) {
		// A competitor on the query node is 0 from it: not strictly
		// closer to anything past the edge it sits on, so that edge is
		// still crossed. Lazy and lazy-EP answered [p1] for R1NN(node 1).
		db := openEdges(t, 3, [3]float64{0, 1, 3}, [3]float64{0, 2, 1})
		ps := db.NewEdgePoints()
		if _, err := ps.Place(0, 2, 0.5); err != nil {
			t.Fatal(err)
		}
		if _, err := ps.Place(0, 1, 3); err != nil {
			t.Fatal(err)
		}
		check(t, graphrnn.Agreement{Points: ps, Algos: edgeSubstrates(t, db, ps, 2), Ks: oracle.Depths(3), InsideEdges: true})
	})
	t.Run("float-tie", func(t *testing.T) {
		// The candidate on node 0 is exactly as far from node 3 as from the
		// site on node 6: 0.6 both ways on the graph's quantum. Summed as the
		// weights were added, the two paths differ in the last bit (0.6 and
		// 0.6000000000000001), and a hub-label index over the sites, adding
		// two label halves, put the site strictly closer: it answered [] at
		// node 3 where the definition answers [0].
		db := openEdges(t, 7, [3]float64{0, 1, 0.3}, [3]float64{1, 2, 0.2}, [3]float64{2, 3, 0.1},
			[3]float64{0, 4, 0.1}, [3]float64{4, 5, 0.2}, [3]float64{5, 6, 0.3}, [3]float64{3, 6, 0.05})
		cands, sites := db.NewNodePoints(), db.NewNodePoints()
		if _, err := cands.Place(0); err != nil {
			t.Fatal(err)
		}
		if _, err := sites.Place(6); err != nil {
			t.Fatal(err)
		}
		check(t, graphrnn.Agreement{Points: cands, Sites: sites, Ks: oracle.Depths(2), Algos: nodeSubstrates(t, db, sites, 1, nil)})
	})
	t.Run("grid-d7-tie", func(t *testing.T) {
		// Cut down from GenerateGrid(2006, 10000, 7) with 100 points of
		// PlaceRandomNodePoints(1, ...): the 17 nodes within 1e-9 of a
		// shortest path from p90 to node 477 or to p55, which lie on nodes
		// 3, 1 and 16 here. d(p90, 477) and r_1(p90) = d(p90, p55) differ
		// in the last bit when summed along the path as added
		// (11.019764837837085 against ...084), and the hub-label index's
		// label sums did not order them the same way: it answered [p90] at
		// node 1, k = 1, where the definition answers [] (on the full grid,
		// [55 90] against [55] at node 477).
		const r2, r13 = 1.4142135623730951, 3.6055512754639896 // √2, √13
		db := openEdges(t, 17,
			[3]float64{0, 1, 1}, [3]float64{0, 2, r2}, [3]float64{2, 8, r13}, [3]float64{3, 4, 1},
			[3]float64{3, 9, 1}, [3]float64{4, 5, 1}, [3]float64{5, 6, 1}, [3]float64{6, 7, 1},
			[3]float64{7, 8, 1}, [3]float64{9, 10, r2}, [3]float64{10, 11, 1}, [3]float64{11, 12, r13},
			[3]float64{12, 13, 1}, [3]float64{13, 14, 1}, [3]float64{14, 15, 1}, [3]float64{15, 16, 1})
		ps := db.NewNodePoints()
		for _, n := range []graphrnn.NodeID{16, 3} { // p55, p90
			if _, err := ps.Place(n); err != nil {
				t.Fatal(err)
			}
		}
		check(t, graphrnn.Agreement{Points: ps, Algos: nodeSubstrates(t, db, ps, 2, nil), Ks: oracle.Depths(2, ps.Len()+1)})
	})
	t.Logf("%d answers agree with the oracle", checks)
}

// agreementCase decodes fuzz bytes into one harness input. Layout: [n, k,
// kind, q, tenths, route1, route2, points lo, points hi, sites lo, sites
// hi], then (u, v, w) triples, each a one-way arc of weight 1 + w%8 (an
// edge where its equal-weight twin exists). kind%3 picks rnn, bichromatic
// (the sites compete) or continuous along [q, route1, route2]. Integer
// weights tie exactly in any order of summation; bit 1 of the tenths byte
// divides every weight by 10 (0.1 … 0.8), whose sums tie only once the
// graph puts them on its quantum (the byte's other bits are unused: every
// point is queried hidden at its own location anyway).
// Bit 7 of kind makes the case edge-resident: every triple is an edge, and
// bits 3-5 of its w byte, c > 0, put a point at (c-1)/4 of the edge — a
// site when bit 6 is set — in place of the node bitmasks.
func agreementCase(t *testing.T, data []byte) (a graphrnn.Agreement, ok bool) {
	const header = 11
	if len(data) < header {
		return a, false
	}
	n, maxK, edges := 2+int(data[0])%15, 1+int(data[1])%4, data[2]&0x80 != 0
	node := func(b byte) graphrnn.NodeID { return graphrnn.NodeID(int(b) % n) }
	scale := 1.0
	if data[4]&2 != 0 {
		scale = 10
	}
	gb := graphrnn.NewGraphBuilder(n)
	for a := data[header:]; len(a) >= 3; a = a[3:] {
		// A self loop is the only arc these bytes can get wrong; skip it.
		if w := float64(1+a[2]%8) / scale; edges {
			_ = gb.AddEdge(node(a[0]), node(a[1]), w)
		} else {
			_ = gb.AddArc(node(a[0]), node(a[1]), w)
		}
	}
	g, err := gb.Build()
	if err != nil {
		return a, false
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.Ks = oracle.Depths(maxK)
	kind := data[2] & 0x7f % 3
	if kind == 2 {
		a.Routes = [][]graphrnn.NodeID{{node(data[3]), node(data[5]), node(data[6])}}
	}
	if edges {
		ps, sites := db.NewEdgePoints(), db.NewEdgePoints()
		for a := data[header:]; len(a) >= 3; a = a[3:] {
			u, v, c := node(a[0]), node(a[1]), int(a[2]>>3&7)
			if w, ok := g.EdgeWeight(u, v); ok && c > 0 {
				set := ps
				if a[2]&0x40 != 0 {
					set = sites
				}
				if _, err := set.Place(u, v, w*float64(min(c, 5)-1)/4); err != nil {
					t.Fatal(err)
				}
			}
		}
		a.Points, a.Algos, a.InsideEdges = ps, edgeSubstrates(t, db, ps, maxK), true
		if kind == 1 {
			a.Sites, a.Algos = sites, edgeSubstrates(t, db, sites, maxK)
		}
		return a, true
	}
	place := func(lo, hi byte) *graphrnn.NodePoints {
		ps := db.NewNodePoints()
		for i := range n {
			if (uint(hi)<<8|uint(lo))>>i&1 == 1 {
				if _, err := ps.Place(graphrnn.NodeID(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return ps
	}
	ps := place(data[7], data[8])
	a.Points, a.Algos = ps, nodeSubstrates(t, db, ps, maxK, nil)
	if kind == 1 {
		sites := place(data[9], data[10])
		a.Sites, a.Algos = sites, nodeSubstrates(t, db, sites, maxK, nil)
	}
	return a, true
}

// FuzzAgreement: on any small network — one-way arcs or edges, integer
// weights with ties everywhere or tenths whose ties hang on the last bit,
// disconnected parts, node or edge points, co-located points and points on
// endpoints — every substrate that serves the decoded shape answers like
// the oracle at every node.
func FuzzAgreement(f *testing.F) {
	// The one-way street of TestDirectedOneWayStreetAsymmetry: p on node 0
	// reaches q = node 1 in 1, q reaches p only in 10; x on node 2 is 2
	// from p either way and 8 from q.
	street := []byte{0, 1, 0, 1, 3, 4, 3, 0, 4, 0, 2, 1, 2, 0, 1, 2, 1, 7, 1, 2, 7}
	f.Add(append([]byte{2, 0, 0, 1, 0, 0, 0, 0b101, 0, 0, 0}, street...))
	// Not strongly connected, query co-located with a point, k >= |P|.
	f.Add([]byte{4, 3, 0, 2, 0, 0, 0, 0b100110, 0, 0, 0, 0, 1, 1, 1, 2, 1, 2, 3, 4, 5, 2, 2})
	// Bichromatic and continuous over a ring with chords, ties everywhere.
	ring := []byte{0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 4, 1, 4, 5, 1, 5, 0, 1, 0, 3, 2, 4, 1, 2}
	f.Add(append([]byte{4, 1, 1, 0, 1, 0, 0, 0b101011, 0, 0b010100, 0}, ring...))
	f.Add(append([]byte{4, 1, 2, 0, 1, 3, 5, 0b111010, 0, 0, 0}, ring...))
	// TestAgreement/lazy-tie: edges (0,2,1) with a point at its middle and
	// (0,1,3) with a point on node 1.
	f.Add([]byte{1, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3<<3 | 0, 0, 1, 5<<3 | 2})
	// TestAgreement/float-tie at twice its scale (doubling is exact), in
	// tenths: bichromatic, the candidate on node 0, the site on node 6,
	// both arcs of each edge.
	var tie []byte
	for _, e := range [][3]byte{{0, 1, 5}, {1, 2, 3}, {2, 3, 1}, {0, 4, 1}, {4, 5, 3}, {5, 6, 5}, {3, 6, 0}} {
		tie = append(tie, e[0], e[1], e[2], e[1], e[0], e[2])
	}
	f.Add(append([]byte{5, 0, 1, 3, 2, 0, 0, 1, 0, 1 << 6, 0}, tie...))
	// One-way arcs in tenths (6→0 added at 0.2 twice and at 0.8, so Q =
	// 2^-50), bichromatic, the site on node 6: the candidate on node 5
	// reaches node 0 (0.4 + 0.2) one quantum further than the site (0.6),
	// so it is no member of R1NN(0). Eager answered it anyway while its
	// bounds still moved by a relative 1e-11 against float noise the grid
	// has removed.
	f.Add([]byte{5, 0, 1, 0, 2, 0, 0, 0b110001, 0, 1 << 6, 0, 6, 0, 1, 6, 0, 1, 4, 0, 1, 6, 0, 7, 5, 4, 3, 5, 6, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if a, ok := agreementCase(t, data); ok {
			graphrnn.CheckAgreement(t, a)
		}
	})
}

// paperSweep turns on TestPaperScaleAgreement, which takes minutes: the
// nightly workflow runs it, tier-1 skips it.
var paperSweep = flag.Bool("paper-sweep", false, "run TestPaperScaleAgreement: every substrate against the oracle on the paper's graphs (minutes)")

// TestPaperScaleAgreement is the agreement harness on the paper's own
// graphs, where its small networks cannot reach (a float tie that showed
// only on grid-10K at degree 7 did): road-20K, BRITE-10K and grid-10K at
// degrees 4 and 7, |P| = |V|/100, k = 1–4. Hub-label in memory and paged,
// eager-M and the planner answer at every node and with every point hidden;
// eager, lazy and lazy-EP at every 97th node. It logs each graph's wall
// time, and runs only with -paper-sweep.
func TestPaperScaleAgreement(t *testing.T) {
	if !*paperSweep {
		t.Skip("a paper-scale sweep of minutes: run with -paper-sweep")
	}
	for _, c := range []struct {
		name  string
		graph func() (*graphrnn.Graph, error)
	}{
		{"road-20K", func() (*graphrnn.Graph, error) { return graphrnn.GenerateRoadNetwork(2006, 20000) }},
		{"brite-10K", func() (*graphrnn.Graph, error) { return graphrnn.GenerateBrite(7, 10000, 4) }},
		{"grid-10K-d4", func() (*graphrnn.Graph, error) { return graphrnn.GenerateGrid(13, 10000, 4) }},
		{"grid-10K-d7", func() (*graphrnn.Graph, error) { return graphrnn.GenerateGrid(13, 10000, 7) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			g, err := c.graph()
			if err != nil {
				t.Fatal(err)
			}
			db, err := graphrnn.Open(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := db.PlaceRandomNodePoints(100, g.NumNodes()/100)
			if err != nil {
				t.Fatal(err)
			}
			const maxK = 4
			ks := []int{1, 2, 3, 4}
			mem, err := db.BuildHubLabelIndex(ps, maxK, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer mem.Close()
			paged, err := db.BuildHubLabelIndex(ps, maxK, &graphrnn.HubLabelOptions{DiskBacked: true})
			if err != nil {
				t.Fatal(err)
			}
			defer paged.Close()
			mat, err := db.MaterializeNodePoints(ps, maxK, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer mat.Close()
			indexed := graphrnn.CheckAgreement(t, graphrnn.Agreement{Points: ps, Ks: ks, Algos: map[string]graphrnn.Algorithm{
				"hub-label": graphrnn.HubLabel(mem), "hub-label paged": graphrnn.HubLabel(paged),
				"eager-M": graphrnn.EagerM(mat), "auto": graphrnn.Auto(),
			}})
			mid := time.Now()
			expanded := graphrnn.CheckAgreement(t, graphrnn.Agreement{Points: ps, Ks: ks, NodeStride: 97, Algos: map[string]graphrnn.Algorithm{
				"eager": graphrnn.Eager(), "lazy": graphrnn.Lazy(), "lazy-EP": graphrnn.LazyEP(),
			}})
			t.Logf("%s (|V| %d, |P| %d): %d indexed answers agree in %v (set-up included), %d expansion answers at stride 97 in %v",
				c.name, g.NumNodes(), ps.Len(), indexed, mid.Sub(start).Round(time.Millisecond), expanded, time.Since(mid).Round(time.Millisecond))
		})
	}
}

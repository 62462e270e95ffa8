package graphrnn_test

// Directed networks through the public API only: NewGraphBuilder → AddArc →
// Open → Run / BuildHubLabelIndex. The forward kinds on random asymmetric
// graphs, the typed rejection of everything that needs symmetric distances
// and the auto plan, the AddArc twin of an undirected graph against the
// AddEdge original. Every RkNN kind under every substrate that serves one-way arcs is held to the
// oracle at every node.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"graphrnn"
	"graphrnn/internal/oracle"
)

// randArcGraph builds a random graph of one-way arcs: strongly connected
// when cycle is set (a directed ring under the random arcs), with unit-step
// integer weights (distance ties everywhere) or random float ones.
func randArcGraph(t testing.TB, rng *rand.Rand, n int, cycle, intWeights bool) *graphrnn.Graph {
	t.Helper()
	w := func() float64 {
		if intWeights {
			return float64(1 + rng.Intn(4))
		}
		return 1 + rng.Float64()*5
	}
	gb := graphrnn.NewGraphBuilder(n)
	add := func(u, v int) {
		if u == v {
			return
		}
		if err := gb.AddArc(graphrnn.NodeID(u), graphrnn.NodeID(v), w()); err != nil {
			t.Fatal(err)
		}
	}
	if cycle {
		for i := range n {
			add(i, (i+1)%n)
		}
	}
	for range n + rng.Intn(3*n) {
		add(rng.Intn(n), rng.Intn(n))
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() {
		t.Fatal("random arcs built an undirected graph")
	}
	return g
}

// placeOnRandomNodes places count points on distinct random nodes.
func placeOnRandomNodes(t testing.TB, rng *rand.Rand, db *graphrnn.DB, count int) *graphrnn.NodePoints {
	t.Helper()
	ps := db.NewNodePoints()
	for _, n := range rng.Perm(db.Graph().NumNodes())[:count] {
		if _, err := ps.Place(graphrnn.NodeID(n)); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

// hubBackends are the two ways an index serves its labels.
var hubBackends = []struct {
	name string
	opt  *graphrnn.HubLabelOptions
}{
	{"memory", nil},
	{"paged", &graphrnn.HubLabelOptions{DiskBacked: true, BufferPages: 4}},
}

// directedEnv is one random directed setting: a graph, strongly connected
// or not, with integer or float weights, a data set and a depth that may
// reach |P|.
type directedEnv struct {
	db         *graphrnn.DB
	ps         *graphrnn.NodePoints
	k          int
	describeIt string
}

func newDirectedEnv(t testing.TB, rng *rand.Rand, it int) *directedEnv {
	t.Helper()
	n := 8 + rng.Intn(40)
	cycle, intWeights := rng.Intn(3) > 0, rng.Intn(2) == 0
	db, err := graphrnn.Open(randArcGraph(t, rng, n, cycle, intWeights), nil)
	if err != nil {
		t.Fatal(err)
	}
	e := &directedEnv{db: db, k: 1 + rng.Intn(3)}
	e.ps = placeOnRandomNodes(t, rng, db, 2+rng.Intn(n/2))
	if rng.Intn(6) == 0 {
		e.k = e.ps.Len() + rng.Intn(2) // k >= |P|: every point the query reaches is a neighbour
	}
	e.describeIt = fmt.Sprintf("iter %d (|V|=%d cycle=%v int=%v |P|=%d k=%d)", it, n, cycle, intWeights, e.ps.Len(), e.k)
	return e
}

// TestDirectedRunAgreesWithBrute: on random one-way networks (integer and
// float weights, strongly connected or not) every RkNN kind under every
// substrate that serves one-way arcs — eager, lazy-EP, hub-label in memory
// and paged, brute force and auto — answers like the oracle at every node,
// before and after an Insert and a Remove, and the maintained index answers
// like a freshly built one.
func TestDirectedRunAgreesWithBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1801))
	for it := range 16 {
		n := 8 + rng.Intn(32)
		db, err := graphrnn.Open(randArcGraph(t, rng, n, it%3 > 0, it%2 == 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		ps := placeOnRandomNodes(t, rng, db, 2+rng.Intn(n/2))
		sites := placeOnRandomNodes(t, rng, db, 1+rng.Intn(n/4))
		maxK := 1 + rng.Intn(3)
		hub := hubBackends[it%len(hubBackends)].opt
		idx, err := db.BuildHubLabelIndex(ps, maxK, hub)
		if err != nil {
			t.Fatal(err)
		}
		defer idx.Close()
		mono := graphrnn.Agreement{Points: ps, Ks: oracle.Depths(maxK, ps.Len()), Routes: randRoutes(rng, n), Algos: map[string]graphrnn.Algorithm{
			"eager": graphrnn.Eager(), "lazy-EP": graphrnn.LazyEP(), "hub-label": graphrnn.HubLabel(idx), "brute": graphrnn.BruteForce(), "auto": graphrnn.Auto(),
		}}
		graphrnn.CheckAgreement(t, mono)
		graphrnn.CheckAgreement(t, graphrnn.Agreement{Points: ps, Sites: sites, Algos: nodeSubstrates(t, db, sites, maxK, hub), Ks: oracle.Depths(maxK)})
		churn(t, rng, db, ps, func(when string) {
			graphrnn.CheckAgreement(t, mono)
			mustEqualRebuilt(t, db, ps, idx, maxK, mono.Routes, fmt.Sprintf("iter %d %s", it, when))
		})
	}
}

// mustEqualRebuilt requires the planner to still pick the maintained index
// over ps for every node's query and every route, and the index to answer
// them — members and work counters — like one built from scratch over the
// set as it is now.
func mustEqualRebuilt(t testing.TB, db *graphrnn.DB, ps *graphrnn.NodePoints, idx *graphrnn.HubLabelIndex, maxK int, routes [][]graphrnn.NodeID, when string) {
	t.Helper()
	var queries []graphrnn.Query
	for k := 1; k <= maxK; k++ {
		for n := range db.Graph().NumNodes() {
			queries = append(queries, rnnQuery(ps, graphrnn.NodeID(n), k, graphrnn.HubLabel(idx)))
		}
		for _, r := range routes {
			queries = append(queries, routeQuery(ps, r, k, graphrnn.HubLabel(idx)))
		}
	}
	run := func(q graphrnn.Query) *graphrnn.Result {
		t.Helper()
		res, err := db.Run(context.Background(), q)
		if err != nil {
			t.Fatalf("%s %s k=%d at %v, route %v: %v", when, q.Kind, q.K, q.Target, q.Route, err)
		}
		return res
	}
	for _, q := range queries { // before the rebuilt index is attached beside it
		q.Algorithm, q.Strict = graphrnn.Auto(), false
		if auto := run(q); auto.Plan.Algorithm.String() != "hub-label" {
			t.Fatalf("%s %s k=%d at %v, route %v: auto planned %s, want hub-label", when, q.Kind, q.K, q.Target, q.Route, auto.Plan.Explain())
		}
	}
	fresh, err := db.BuildHubLabelIndex(ps, maxK, hubBackends[0].opt)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for _, q := range queries {
		got := run(q)
		q.Algorithm = graphrnn.HubLabel(fresh)
		if want := run(q); !samePoints(got.Points, want.Points) || got.Stats != want.Stats {
			t.Fatalf("%s %s k=%d at %v, route %v: maintained %v %+v, rebuilt %v %+v",
				when, q.Kind, q.K, q.Target, q.Route, got.Points, got.Stats, want.Points, want.Stats)
		}
	}
}

// TestDirectedKNNAndDistance: the forward kinds follow out-arcs.
func TestDirectedKNNAndDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(1802))
	for it := range 40 {
		e := newDirectedEnv(t, rng, it)
		q := graphrnn.NodeID(rng.Intn(e.db.Graph().NumNodes()))
		var want []float64
		for _, p := range e.ps.Points() {
			n, _ := e.ps.NodeOf(p)
			d, err := e.db.Distance(graphrnn.NodeLocation(q), graphrnn.NodeLocation(n))
			if err != nil {
				t.Fatal(err)
			}
			if !math.IsInf(d, 1) {
				want = append(want, d)
			}
		}
		sort.Float64s(want)
		want = want[:min(len(want), e.k)]
		res, err := e.db.Run(context.Background(), graphrnn.Query{Kind: graphrnn.KindKNN, Target: graphrnn.NodeLocation(q), K: e.k, Points: e.ps})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Neighbors) != len(want) {
			t.Fatalf("%s: knn(%d) = %v, want distances %v", e.describeIt, q, res.Neighbors, want)
		}
		for i, nb := range res.Neighbors {
			if nb.Distance != want[i] {
				t.Fatalf("%s: knn(%d) = %v, want distances %v", e.describeIt, q, res.Neighbors, want)
			}
		}
	}
}

// TestDirectedRejectsUndirectedOnly: everything whose correctness needs
// d(a,b) = d(b,a) answers ErrUndirectedOnly at its entry, and a non-strict
// hint falls back instead.
func TestDirectedRejectsUndirectedOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(1803))
	g := randArcGraph(t, rng, 30, true, false)
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ps := placeOnRandomNodes(t, rng, db, 8)
	es := db.NewEdgePoints()
	inEdge := graphrnn.EdgeLocation(0, 1, 0.5)

	// A materialization built over an undirected graph of the same size is
	// no more valid here than one built here.
	ugb := graphrnn.NewGraphBuilder(30)
	for i := range 29 {
		if err := ugb.AddEdge(graphrnn.NodeID(i), graphrnn.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	ug, err := ugb.Build()
	if err != nil {
		t.Fatal(err)
	}
	udb, err := graphrnn.Open(ug, nil)
	if err != nil {
		t.Fatal(err)
	}
	ups := placeOnRandomNodes(t, rng, udb, 4)
	umat, err := udb.MaterializeNodePoints(ups, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer umat.Close()

	run := func(q graphrnn.Query) error { _, err := db.Run(ctx, q); return err }
	errOf := func(_ any, err error) error { return err }
	_, _, insertErr := es.Insert(ctx, inEdge, nil)
	_, distErr := db.Distance(graphrnn.NodeLocation(0), inEdge)
	rejected := map[string]error{
		"lazy (strict)":           run(rnnQuery(ps, 3, 1, graphrnn.Lazy())),
		"eager-M (strict)":        run(rnnQuery(ps, 3, 1, graphrnn.EagerM(nil))),
		"foreign eager-M":         run(rnnQuery(ps, 3, 1, graphrnn.EagerM(umat))),
		"MaterializeNodePoints":   errOf(db.MaterializeNodePoints(ps, 2, nil)),
		"MaterializeEdgePoints":   errOf(db.MaterializeEdgePoints(es, 2, nil)),
		"edge-resident set":       run(edgeRNNQuery(es, graphrnn.NodeLocation(3), 1, graphrnn.Eager())),
		"edge-resident target":    run(edgeRNNQuery(es, inEdge, 1, graphrnn.Auto())),
		"edge-resident knn":       run(graphrnn.Query{Kind: graphrnn.KindKNN, Target: inEdge, K: 1, Points: es}),
		"edge-resident sites":     run(biQuery(es, es, 3, 1, graphrnn.Eager())),
		"EdgePoints.Insert":       insertErr,
		"EdgePoints.Place":        errOf(es.Place(0, 1, 0.5)),
		"Distance inside an edge": distErr,
		"DB.Shard":                errOf(db.Shard(ps, &graphrnn.ShardOptions{Shards: 2})),
		"Options.DiskBacked":      errOf(graphrnn.Open(g, &graphrnn.Options{DiskBacked: true})),
	}
	for name, err := range rejected {
		if !errors.Is(err, graphrnn.ErrUndirectedOnly) {
			t.Errorf("%s: err = %v, want ErrUndirectedOnly", name, err)
		}
	}
	if es.Len() != 0 {
		t.Fatalf("rejected inserts left %d edge points behind", es.Len())
	}

	// A hint is not a demand: lazy and eager-M fall back down the auto
	// chain, which picks eager, and the hub-label index once one exists.
	brute, err := db.Run(ctx, rnnQuery(ps, 3, 1, graphrnn.BruteForce()))
	if err != nil {
		t.Fatal(err)
	}
	fallsBackTo := func(want string) {
		t.Helper()
		res, err := db.Run(ctx, graphrnn.Query{Target: graphrnn.NodeLocation(3), K: 1, Points: ps})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.Algorithm.String() != want || !samePoints(res.Points, brute.Points) {
			t.Fatalf("auto planned %q and answered %v, want %s and brute's %v", res.Plan.Explain(), res.Points, want, brute.Points)
		}
		for _, hint := range []graphrnn.Algorithm{graphrnn.Lazy(), graphrnn.EagerM(nil)} {
			q := rnnQuery(ps, 3, 1, hint)
			q.Strict = false
			res, err := db.Run(ctx, q)
			if err != nil {
				t.Fatalf("non-strict %s hint: %v", hint, err)
			}
			if !res.Plan.Fallback || res.Plan.Algorithm.String() != want {
				t.Fatalf("non-strict %s hint planned %q, want a fallback to %s", hint, res.Plan.Explain(), want)
			}
			if !samePoints(res.Points, brute.Points) {
				t.Fatalf("fallback from %s answered %v, brute %v", hint, res.Points, brute.Points)
			}
		}
	}
	fallsBackTo("eager")
	idx, err := db.BuildHubLabelIndex(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	fallsBackTo("hub-label")
}

// TestArcTwinsAreTheUndirectedGraph: a graph built from AddArc(u,v,w) +
// AddArc(v,u,w) is indistinguishable — answers, Stats, plans — from its
// AddEdge twin, under every algorithm including the undirected-only ones.
func TestArcTwinsAreTheUndirectedGraph(t *testing.T) {
	edges, err := graphrnn.GenerateRoadNetwork(1804, 400)
	if err != nil {
		t.Fatal(err)
	}
	gb := graphrnn.NewGraphBuilder(edges.NumNodes())
	var addErr error
	edges.Edges(func(u, v graphrnn.NodeID, w float64) {
		addErr = errors.Join(addErr, gb.AddArc(u, v, w), gb.AddArc(v, u, w))
	})
	if addErr != nil {
		t.Fatal(addErr)
	}
	arcs, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if arcs.Directed() || arcs.NumEdges() != edges.NumEdges() {
		t.Fatalf("arc twins: directed=%v |E|=%d, want undirected |E|=%d", arcs.Directed(), arcs.NumEdges(), edges.NumEdges())
	}
	type side struct {
		db    *graphrnn.DB
		ps    *graphrnn.NodePoints
		algos map[string]graphrnn.Algorithm
	}
	open := func(g *graphrnn.Graph) side {
		db, err := graphrnn.Open(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := db.PlaceRandomNodePoints(1805, 40)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := db.MaterializeNodePoints(ps, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := db.BuildHubLabelIndex(ps, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { idx.Close(); mat.Close() })
		return side{db, ps, map[string]graphrnn.Algorithm{
			"eager": graphrnn.Eager(), "lazy": graphrnn.Lazy(), "lazy-EP": graphrnn.LazyEP(),
			"eager-M": graphrnn.EagerM(mat), "hub-label": graphrnn.HubLabel(idx), "auto": graphrnn.Auto(),
		}}
	}
	a, e := open(arcs), open(edges)
	for n := 0; n < edges.NumNodes(); n += 13 {
		for k := 1; k <= 2; k++ {
			for name := range e.algos {
				want, err := e.db.Run(context.Background(), rnnQuery(e.ps, graphrnn.NodeID(n), k, e.algos[name]))
				if err != nil {
					t.Fatal(err)
				}
				got, err := a.db.Run(context.Background(), rnnQuery(a.ps, graphrnn.NodeID(n), k, a.algos[name]))
				if err != nil {
					t.Fatal(err)
				}
				if !samePoints(got.Points, want.Points) || got.Stats != want.Stats || got.Plan.Explain() != want.Plan.Explain() {
					t.Fatalf("%s node %d k=%d: arcs %v %+v %q, edges %v %+v %q",
						name, n, k, got.Points, got.Stats, got.Plan.Explain(), want.Points, want.Stats, want.Plan.Explain())
				}
			}
		}
	}
}

package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/stats.golden from the current engine")

// TestStatsGolden pins the answer and all nine work counters of every
// algorithm × kind × residency × k ∈ {1, 2, 4}, plus KNN, VerifyMember and
// the node-resident kinds on an asymmetric directed twin, over three seeded
// graphs against testdata/stats.golden.
// The oracle tests prove the answers right; this one
// proves that a refactor of the walker did not move the work — the
// counters are what repro.golden, the work budgets and the benchmark
// record. Regenerate deliberately with
// `go test ./internal/core -run TestStatsGolden -update` and review the
// diff line by line.
func TestStatsGolden(t *testing.T) {
	var b strings.Builder
	envs := goldenEnvs(t)
	for _, env := range envs {
		env.dump(t, &b)
	}
	// Rows added after the file was first pinned go behind every earlier
	// row, so the diff of a regeneration shows them as a pure append.
	for _, env := range envs {
		env.dumpDirectedKinds(t, &b)
	}
	path := filepath.Join("testdata", "stats.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, exp := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Errorf("%d lines, golden has %d", len(got), len(exp))
	}
	diffs := 0
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			if diffs++; diffs <= 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], exp[i])
			}
		}
	}
	if diffs > 20 {
		t.Errorf("... and %d more differing lines", diffs-20)
	}
}

var goldenKs = []int{1, 2, 4}

var goldenAlgos = []struct {
	name string
	a    Algo
}{{"eager", AlgoEager}, {"eager-m", AlgoEagerM}, {"lazy", AlgoLazy}, {"lazy-ep", AlgoLazyEP}, {"brute", AlgoBrute}}

// goldenEnv is one seeded graph with a point set and a site set in each
// residency, the materializations eager-M reads, and a searcher over an
// asymmetric directed twin.
type goldenEnv struct {
	name        string
	rng         *rand.Rand
	g           *graph.Graph
	s           *Searcher
	nps, nsites *points.NodeSet
	eps, esites *points.EdgeSet
	// Lists over the point sets (monochromatic, continuous) and over the
	// site sets (bichromatic).
	nmat, nsmat, emat, esmat *Materialized
	ds                       *Searcher
}

func goldenEnvs(t *testing.T) []*goldenEnv {
	t.Helper()
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 14, Nodes: 320})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid(gen.GridConfig{Seed: 15, Nodes: 256, Degree: 4}) // unit weights: ties everywhere
	if err != nil {
		t.Fatal(err)
	}
	brite, err := gen.Brite(gen.BriteConfig{Seed: 16, Nodes: 300, AvgDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	var envs []*goldenEnv
	for i, c := range []struct {
		name string
		g    *graph.Graph
	}{{"road", road}, {"grid", grid}, {"brite", brite}} {
		envs = append(envs, newGoldenEnv(t, c.name, c.g, int64(100+i)))
	}
	return envs
}

func newGoldenEnv(t *testing.T, name string, g *graph.Graph, seed int64) *goldenEnv {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := &goldenEnv{name: name, rng: rng, g: g, s: NewSearcher(g)}
	n := g.NumNodes()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var err error
	e.nps, err = gen.PlaceNodePoints(rng, n, n/10)
	must(err)
	e.nsites, err = gen.PlaceNodePoints(rng, n, n/20)
	must(err)
	el := gen.Edges(g)
	e.eps, err = gen.PlaceEdgePoints(rng, el, n/10)
	must(err)
	e.esites, err = gen.PlaceEdgePoints(rng, el, n/20)
	must(err)
	const maxK = 4
	build := func(ps PointSet) *Materialized {
		mat, err := matBuild(e.s, ps, maxK, newMemMatFile(), 64, nil)
		must(err)
		return mat
	}
	e.nmat, e.nsmat = build(PointSet{Node: e.nps}), build(PointSet{Node: e.nsites})
	e.emat, e.esmat = build(PointSet{Edge: e.eps}), build(PointSet{Edge: e.esites})

	// The directed twin keeps every edge as two arcs of different integer
	// multiples of its weight, so d(u→v) != d(v→u) almost everywhere.
	db := graph.NewBuilder(n)
	for i := range el.U {
		must(db.AddArc(el.U[i], el.V[i], g.Float(el.W[i])*float64(1+rng.Intn(3))))
		must(db.AddArc(el.V[i], el.U[i], g.Float(el.W[i])*float64(1+rng.Intn(3))))
	}
	dg, err := db.Build()
	must(err)
	e.ds = NewSearcher(dg)
	return e
}

// locLabel names l in a golden row, its offset in the graph's units.
func (e *goldenEnv) locLabel(l Loc) string {
	if l.IsNode() {
		return l.String()
	}
	return fmt.Sprintf("edge(%d,%d)@%.3f", l.U, l.V, e.g.Float(l.Pos))
}

// goldenQuery is one query shape; run executes it under an algorithm and
// verify, when set, is the VerifyMember call of the same request.
type goldenQuery struct {
	label  string
	run    func(a Algo, k int) (*Result, error)
	verify func(p points.PointID, k int) (bool, Stats, error)
	cands  []points.PointID
}

func (e *goldenEnv) dump(t *testing.T, b *strings.Builder) {
	t.Helper()
	edges := graphEdges(e.g)
	randNode := func() graph.NodeID { return graph.NodeID(e.rng.Intn(e.g.NumNodes())) }
	randEdgeLoc := func() Loc {
		ed := edges[e.rng.Intn(len(edges))]
		return Loc{U: ed.u, V: ed.v, Pos: e.g.Round(e.rng.Float64() * ed.w)}
	}
	route := func() []graph.NodeID { return gen.RandomWalkRoute(e.rng, e.g, 5) }
	var queries []goldenQuery

	// Node-resident shapes.
	nodeRNN := func(view points.NodeView, q graph.NodeID) goldenQuery {
		return goldenQuery{
			label: fmt.Sprintf("node/rnn/q=%d", q),
			run: func(a Algo, k int) (*Result, error) {
				return runRNN(e.s, a, view, e.nmat, q, k)
			},
			verify: func(p points.PointID, k int) (bool, Stats, error) {
				return e.s.VerifyMember(Request{Kind: KindRNN, K: k, Points: PointSet{Node: view}, Target: NodeLoc(q)}, p)
			},
			cands: view.Points(),
		}
	}
	qp := e.nps.Points()[e.rng.Intn(e.nps.Len())]
	qn, _ := e.nps.NodeOf(qp)
	queries = append(queries, nodeRNN(points.ExcludeNode(e.nps, qp), qn), nodeRNN(e.nps, randNode()))

	nodeBi := func(sites points.NodeView, q graph.NodeID) goldenQuery {
		return goldenQuery{
			label: fmt.Sprintf("node/bichromatic/q=%d", q),
			run: func(a Algo, k int) (*Result, error) {
				return runBi(e.s, a, e.nps, sites, e.nsmat, q, k)
			},
			verify: func(p points.PointID, k int) (bool, Stats, error) {
				return e.s.VerifyMember(Request{Kind: KindBichromatic, K: k, Points: PointSet{Node: e.nps}, Sites: PointSet{Node: sites}, Target: NodeLoc(q)}, p)
			},
			cands: e.nps.Points(),
		}
	}
	sp := e.nsites.Points()[e.rng.Intn(e.nsites.Len())]
	sn, _ := e.nsites.NodeOf(sp)
	queries = append(queries, nodeBi(points.ExcludeNode(e.nsites, sp), sn), nodeBi(e.nsites, randNode()))

	for i := 0; i < 2; i++ {
		r := route()
		queries = append(queries, goldenQuery{
			label: fmt.Sprintf("node/continuous/route=%v", r),
			run: func(a Algo, k int) (*Result, error) {
				return runRoute(e.s, a, e.nps, e.nmat, r, k)
			},
			verify: func(p points.PointID, k int) (bool, Stats, error) {
				return e.s.VerifyMember(Request{Kind: KindContinuous, K: k, Points: PointSet{Node: e.nps}, Route: r}, p)
			},
			cands: e.nps.Points(),
		})
	}

	// Edge-resident shapes: a query at an excluded data point, one at a
	// random position inside an edge, one on a node.
	edgeRNN := func(view points.EdgeView, q Loc) goldenQuery {
		return goldenQuery{
			label: "edge/rnn/q=" + e.locLabel(q),
			run: func(a Algo, k int) (*Result, error) {
				return runURNN(e.s, a, view, e.emat, q, k)
			},
		}
	}
	ep := e.eps.Points()[e.rng.Intn(e.eps.Len())]
	eloc, _ := e.eps.Loc(ep)
	queries = append(queries,
		edgeRNN(points.ExcludeEdge(e.eps, ep), PointLoc(eloc)),
		edgeRNN(e.eps, randEdgeLoc()),
		edgeRNN(e.eps, NodeLoc(randNode())))

	edgeBi := func(sites points.EdgeView, q Loc) goldenQuery {
		return goldenQuery{
			label: "edge/bichromatic/q=" + e.locLabel(q),
			run: func(a Algo, k int) (*Result, error) {
				return runUBi(e.s, a, e.eps, sites, e.esmat, q, k)
			},
		}
	}
	esp := e.esites.Points()[e.rng.Intn(e.esites.Len())]
	esloc, _ := e.esites.Loc(esp)
	queries = append(queries,
		edgeBi(points.ExcludeEdge(e.esites, esp), PointLoc(esloc)),
		edgeBi(e.esites, randEdgeLoc()))

	for i := 0; i < 2; i++ {
		r := route()
		queries = append(queries, goldenQuery{
			label: fmt.Sprintf("edge/continuous/route=%v", r),
			run: func(a Algo, k int) (*Result, error) {
				return runURoute(e.s, a, e.eps, e.emat, r, k)
			},
		})
	}

	for _, q := range queries {
		for _, k := range goldenKs {
			for _, al := range goldenAlgos {
				res, err := q.run(al.a, k)
				if err != nil {
					t.Fatalf("%s %s %s k=%d: %v", e.name, q.label, al.name, k, err)
				}
				goldenRow(t, b, fmt.Sprintf("%s %s k=%d %s", e.name, q.label, k, al.name), res.Points, res.Stats)
			}
			if q.verify == nil {
				continue
			}
			// One line per request: the members by VerifyMember and the
			// summed work of confirming every candidate.
			var members []points.PointID
			var sum Stats
			for _, p := range q.cands {
				ok, st, err := q.verify(p, k)
				if err != nil {
					t.Fatalf("%s %s VerifyMember(%d) k=%d: %v", e.name, q.label, p, k, err)
				}
				if ok {
					members = append(members, p)
				}
				sum.Add(st)
			}
			goldenRow(t, b, fmt.Sprintf("%s %s k=%d verify-member", e.name, q.label, k), members, sum)
		}
	}

	// Forward k-NN search in both residencies.
	knnLine := func(label string, k int, out []PointDist, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s k=%d: %v", e.name, label, k, err)
		}
		fmt.Fprintf(b, "%s %s k=%d:", e.name, label, k)
		for _, pd := range out {
			fmt.Fprintf(b, " %d@%s", pd.P, strconv.FormatFloat(e.g.Float(pd.D), 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	kn, kloc := randNode(), randEdgeLoc()
	for _, k := range goldenKs {
		out, err := e.s.KNN(PointSet{Node: e.nps}, NodeLoc(kn), k)
		knnLine(fmt.Sprintf("node/knn/q=%d", kn), k, out, err)
		out, err = e.s.KNN(PointSet{Edge: e.eps}, kloc, k)
		knnLine("edge/knn/q="+e.locLabel(kloc), k, out, err)
		out, err = e.s.KNN(PointSet{Edge: e.eps}, NodeLoc(kn), k)
		knnLine("edge/knn/q="+e.locLabel(NodeLoc(kn)), k, out, err)
	}

	// Directed eager and brute force over the asymmetric twin.
	for _, q := range []graph.NodeID{qn, randNode()} {
		for _, k := range goldenKs {
			for _, al := range goldenAlgos {
				if al.a != AlgoEager && al.a != AlgoBrute {
					continue
				}
				res, err := runRNN(e.ds, al.a, e.nps, nil, q, k)
				if err != nil {
					t.Fatal(err)
				}
				goldenRow(t, b, fmt.Sprintf("%s directed/rnn/q=%d k=%d %s", e.name, q, k, al.name), res.Points, res.Stats)
			}
		}
	}
}

// dumpDirectedKinds covers what the directed rows of dump leave out:
// lazy-EP on the monochromatic query, and the bichromatic and continuous
// kinds under every algorithm that serves a graph with one-way arcs.
func (e *goldenEnv) dumpDirectedKinds(t *testing.T, b *strings.Builder) {
	t.Helper()
	q := graph.NodeID(e.rng.Intn(e.g.NumNodes()))
	route := gen.RandomWalkRoute(e.rng, e.g, 5)
	shapes := []struct {
		label string
		algos []Algo
		run   func(a Algo, k int) (*Result, error)
	}{
		{fmt.Sprintf("directed/rnn/q=%d", q), []Algo{AlgoLazyEP}, func(a Algo, k int) (*Result, error) {
			return runRNN(e.ds, a, e.nps, nil, q, k)
		}},
		{fmt.Sprintf("directed/bichromatic/q=%d", q), []Algo{AlgoEager, AlgoLazyEP, AlgoBrute}, func(a Algo, k int) (*Result, error) {
			return runBi(e.ds, a, e.nps, e.nsites, nil, q, k)
		}},
		{fmt.Sprintf("directed/continuous/route=%v", route), []Algo{AlgoEager, AlgoLazyEP, AlgoBrute}, func(a Algo, k int) (*Result, error) {
			return runRoute(e.ds, a, e.nps, nil, route, k)
		}},
	}
	for _, sh := range shapes {
		for _, k := range goldenKs {
			for _, al := range goldenAlgos {
				if !slices.Contains(sh.algos, al.a) {
					continue
				}
				res, err := sh.run(al.a, k)
				if err != nil {
					t.Fatalf("%s %s %s k=%d: %v", e.name, sh.label, al.name, k, err)
				}
				goldenRow(t, b, fmt.Sprintf("%s %s k=%d %s", e.name, sh.label, k, al.name), res.Points, res.Stats)
			}
		}
	}
}

// goldenRow writes one row. Every node a walk counts as expanded or
// scanned left a queue by a pop, so a row with fewer pops than nodes has
// left some queue's traffic out of its Stats.
func goldenRow(t *testing.T, b *strings.Builder, label string, members []points.PointID, st Stats) {
	t.Helper()
	if st.HeapPops < st.NodesExpanded+st.NodesScanned {
		t.Errorf("%s: %d heap pops for %d expanded + %d scanned nodes", label, st.HeapPops, st.NodesExpanded, st.NodesScanned)
	}
	fmt.Fprintf(b, "%s: %v %s\n", label, members, goldenStats(st))
}

func goldenStats(st Stats) string {
	return fmt.Sprintf("expanded=%d scanned=%d rangenn=%d verif=%d matreads=%d labelreads=%d labelentries=%d pushes=%d pops=%d",
		st.NodesExpanded, st.NodesScanned, st.RangeNN, st.Verifications, st.MatReads,
		st.LabelReads, st.LabelEntries, st.HeapPushes, st.HeapPops)
}

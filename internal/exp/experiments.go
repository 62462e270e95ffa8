package exp

import (
	"fmt"
	"math/rand"

	"graphrnn/internal/core"
	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// Experiment is a named reproduction of one table or figure.
type Experiment struct {
	Name  string
	Paper string
	Run   func(Scale) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Table 1: ad-hoc queries (DBLP-like, k=1)", Table1},
		{"table2", "Table 2: cost vs density (DBLP-like, k=1)", Table2},
		{"fig15", "Fig 15: cost vs |V| (BRITE-like, D=0.01, k=1)", Fig15},
		{"fig16", "Fig 16: cost vs D (BRITE-like, k=1)", Fig16},
		{"fig17", "Fig 17: cost vs D (SF-like, k=1)", Fig17},
		{"fig18", "Fig 18: cost vs k (SF-like, D=0.01)", Fig18},
		{"fig19", "Fig 19: continuous queries vs route size (SF-like, D=0.01, k=1)", Fig19},
		{"fig20a", "Fig 20a: grid maps, cost vs |V| (degree 4, D=0.01, k=1)", Fig20a},
		{"fig20b", "Fig 20b: grid maps, cost vs degree (D=0.01, k=1)", Fig20b},
		{"fig21", "Fig 21: cost vs buffer size (SF-like, D=0.01, k=1)", Fig21},
		{"fig22a", "Fig 22a: update cost vs D (SF-like, K=1)", Fig22a},
		{"fig22b", "Fig 22b: update cost vs K (SF-like, D=0.01)", Fig22b},
		{"hub", "Hub-label substrate vs |V| (road-like restricted, D=0.01, k=1)", HubSubstrate},
		{"budget", "Budgeted queries: degradation under per-query node budgets (road-like, D=0.01, k=2)", Budgeted},
		{"plan", "Planner auto-selection vs eager across attachment states (road-like, D=0.01, k=2)", Planner},
		{"shard", "Sharded scatter-gather vs unsharded engine across shard counts (road-like, D=0.01, k=2)", ShardedServing},
	}
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// densities is the sweep used by Table 2 and Figs 16-17 (the paper caps
// density at 0.1; see Section 6).
var densities = []float64{0.0025, 0.005, 0.01, 0.02, 0.04, 0.08}

// coreAlgos maps the harness's expansion columns onto the engine's
// strategies.
var coreAlgos = map[Algo]core.Algo{
	AlgoEager: core.AlgoEager, AlgoEagerM: core.AlgoEagerM,
	AlgoLazy: core.AlgoLazy, AlgoLazyEP: core.AlgoLazyEP,
}

// expand runs req on s with expansion algorithm a (eager-M reads the
// environment's materialization).
func (e *env) expand(s *core.Searcher, a Algo, req core.Request) (*core.Result, error) {
	ca, ok := coreAlgos[a]
	if !ok {
		return nil, fmt.Errorf("exp: unknown algorithm %q", a)
	}
	req.Algo = ca
	return s.Run(req, e.mat)
}

// restrictedQuery dispatches one restricted monochromatic query. hidden is
// the point excluded by view (points.NoPoint for none) — the hub-label
// substrate needs it explicitly, the expansion algorithms read the view.
func (e *env) restrictedQuery(a Algo, view points.NodeView, qnode graph.NodeID, k int, hidden points.PointID) (*core.Result, error) {
	if a != AlgoHub {
		return e.expand(e.searcher, a, core.Request{K: k, Points: core.PointSet{Node: view}, Target: core.NodeLoc(qnode)})
	}
	if e.hubIdx == nil {
		return nil, fmt.Errorf("exp: hub-label index not built for this environment")
	}
	pts, _, err := e.hubIdx.RkNNExec(nil, qnode, k, hidden)
	if err != nil {
		return nil, err
	}
	return &core.Result{Points: pts}, nil
}

// unrestrictedQuery dispatches one unrestricted monochromatic query.
func (e *env) unrestrictedQuery(a Algo, view points.EdgeView, q core.Loc, k int) (*core.Result, error) {
	return e.expand(e.searcher, a, core.Request{K: k, Points: core.PointSet{Edge: view}, Target: q})
}

// restrictedRow measures all algos over one restricted workload.
func (e *env) restrictedRow(queries []points.PointID, k int, algos []Algo, coldPerQuery bool) ([]Measure, error) {
	row := make([]Measure, len(algos))
	for ai, a := range algos {
		m, err := e.runWorkloadOpt(len(queries), coldPerQuery, func(i int) (*core.Result, error) {
			qp := queries[i]
			qnode, ok := e.nodePts.NodeOf(qp)
			if !ok {
				return nil, fmt.Errorf("exp: query point %d missing", qp)
			}
			return e.restrictedQuery(a, points.ExcludeNode(e.nodePts, qp), qnode, k, qp)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		row[ai] = m
	}
	return row, nil
}

// unrestrictedRow measures all algos over one unrestricted workload.
func (e *env) unrestrictedRow(queries []points.PointID, k int, algos []Algo) ([]Measure, error) {
	row := make([]Measure, len(algos))
	for ai, a := range algos {
		m, err := e.runWorkload(len(queries), func(i int) (*core.Result, error) {
			qp := queries[i]
			loc, ok := e.pagedEP.Loc(qp)
			if !ok {
				return nil, fmt.Errorf("exp: query point %d missing", qp)
			}
			view := points.ExcludeEdge(e.pagedEP, qp)
			return e.unrestrictedQuery(a, view, core.PointLoc(loc), k)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a, err)
		}
		row[ai] = m
	}
	return row, nil
}

// Table1 reproduces the ad-hoc DBLP queries: the point set is defined at
// query time by a predicate ("authors with exactly c papers in venue 0"),
// so materialization is impossible and only eager and lazy compete. The
// predicate count sweeps 0, 1, 2 with increasing selectivity. The DBLP
// graph is small enough to fit any reasonable buffer, so queries run cold
// to expose the I/O difference (see EXPERIMENTS.md).
func Table1(s Scale) (*Table, error) {
	co, err := gen.NewCoauthorship(gen.DefaultCoauthorship(s.seed()))
	if err != nil {
		return nil, err
	}
	e, err := newEnv(co.G, DefaultBufferPages)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rng := rand.New(rand.NewSource(s.seed() + 1))
	t := &Table{
		ID:      "Table 1",
		Title:   fmt.Sprintf("ad-hoc queries, DBLP-like |V|=%d |E|=%d, k=1", co.G.NumNodes(), co.G.NumEdges()),
		XLabel:  "papers",
		Columns: EagerLazy,
	}
	for _, count := range []int{0, 1, 2} {
		nodes := co.AuthorsWithVenueCount(0, count)
		if len(nodes) < 2 {
			return nil, fmt.Errorf("exp: predicate papers=%d matches %d authors", count, len(nodes))
		}
		ps, err := gen.PlaceNodePointsOn(rng, co.G.NumNodes(), nodes)
		if err != nil {
			return nil, err
		}
		e.nodePts = ps
		queries := gen.SampleQueries(rng, ps.Points(), s.queries())
		row, err := e.restrictedRow(queries, 1, EagerLazy, true)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("=%d (%d pts)", count, len(nodes)))
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Table2 reproduces cost vs density on the DBLP-like graph: random
// "interesting" nodes at each density, k=1, eager vs lazy, cold queries.
func Table2(s Scale) (*Table, error) {
	co, err := gen.NewCoauthorship(gen.DefaultCoauthorship(s.seed()))
	if err != nil {
		return nil, err
	}
	e, err := newEnv(co.G, DefaultBufferPages)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rng := rand.New(rand.NewSource(s.seed() + 2))
	t := &Table{
		ID:      "Table 2",
		Title:   fmt.Sprintf("cost vs density, DBLP-like |V|=%d, k=1", co.G.NumNodes()),
		XLabel:  "density",
		Columns: EagerLazy,
	}
	for _, d := range densities {
		count := int(d * float64(co.G.NumNodes()))
		if count < 2 {
			count = 2
		}
		if err := e.withNodePoints(rng, count); err != nil {
			return nil, err
		}
		queries := gen.SampleQueries(rng, e.nodePts.Points(), s.queries())
		row, err := e.restrictedRow(queries, 1, EagerLazy, true)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%.4f", d))
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// briteEnv builds a BRITE-like restricted environment with density d and
// materialized lists for maxK.
func briteEnv(seed int64, nodes int, d float64, maxK, bufferPages int) (*env, error) {
	g, err := gen.Brite(gen.BriteConfig{Seed: seed, Nodes: nodes, AvgDegree: 4})
	if err != nil {
		return nil, err
	}
	e, err := newEnv(g, bufferPages)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 7))
	if err := e.withNodePoints(rng, max(2, int(d*float64(g.NumNodes())))); err != nil {
		_ = e.close()
		return nil, err
	}
	if err := e.materializeNode(maxK); err != nil {
		_ = e.close()
		return nil, err
	}
	return e, nil
}

// Fig15 reproduces cost vs |V| on BRITE-like topologies (D=0.01, k=1):
// the exponential-expansion scenario where the lazy variants collapse.
func Fig15(s Scale) (*Table, error) {
	sizes := []int{10000, 20000, 40000}
	if s.Full {
		sizes = []int{90000, 160000, 250000, 360000}
	}
	t := &Table{
		ID:      "Fig 15",
		Title:   "cost vs |V|, BRITE-like, D=0.01, k=1",
		XLabel:  "|V|",
		Columns: AllAlgos,
	}
	for _, n := range sizes {
		e, err := briteEnv(s.seed(), n, 0.01, 1, s.bufferPages())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 8))
		queries := gen.SampleQueries(rng, e.nodePts.Points(), s.queries())
		row, err := e.restrictedRow(queries, 1, AllAlgos, false)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%d", n))
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Fig16 reproduces cost vs density on a fixed BRITE-like topology.
func Fig16(s Scale) (*Table, error) {
	n := s.pick(40000, 160000)
	t := &Table{
		ID:      "Fig 16",
		Title:   fmt.Sprintf("cost vs D, BRITE-like |V|=%d, k=1", n),
		XLabel:  "density",
		Columns: AllAlgos,
	}
	for _, d := range densities {
		e, err := briteEnv(s.seed(), n, d, 1, s.bufferPages())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 9))
		queries := gen.SampleQueries(rng, e.nodePts.Points(), s.queries())
		row, err := e.restrictedRow(queries, 1, AllAlgos, false)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%.4f", d))
		t.Cells = append(t.Cells, row)
		_ = e.close()
	}
	return t, nil
}

// sfEnv builds a San-Francisco-like unrestricted environment.
func sfEnv(seed int64, nodes int, d float64, maxK, bufferPages int) (*env, error) {
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: seed, Nodes: nodes})
	if err != nil {
		return nil, err
	}
	e, err := newEnv(g, bufferPages)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 11))
	if err := e.withEdgePoints(rng, max(2, int(d*float64(g.NumNodes())))); err != nil {
		_ = e.close()
		return nil, err
	}
	if maxK > 0 {
		if err := e.materializeEdge(maxK); err != nil {
			_ = e.close()
			return nil, err
		}
	}
	return e, nil
}

// Fig17 reproduces cost vs density on the SF-like unrestricted network.
func Fig17(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
	t := &Table{
		ID:      "Fig 17",
		Title:   fmt.Sprintf("cost vs D, SF-like |V|≈%d (unrestricted), k=1", n),
		XLabel:  "density",
		Columns: AllAlgos,
	}
	for _, d := range densities {
		e, err := sfEnv(s.seed(), n, d, 1, s.bufferPages())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 12))
		queries := gen.SampleQueries(rng, e.edgePts.Points(), s.queries())
		row, err := e.unrestrictedRow(queries, 1, AllAlgos)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%.4f", d))
		t.Cells = append(t.Cells, row)
		_ = e.close()
	}
	return t, nil
}

// Fig18 reproduces cost vs k on the SF-like network (D=0.01).
func Fig18(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
	e, err := sfEnv(s.seed(), n, 0.01, 8, s.bufferPages())
	if err != nil {
		return nil, err
	}
	defer e.close()
	rng := rand.New(rand.NewSource(s.seed() + 13))
	queries := gen.SampleQueries(rng, e.edgePts.Points(), s.queries())
	t := &Table{
		ID:      "Fig 18",
		Title:   fmt.Sprintf("cost vs k, SF-like |V|≈%d, D=0.01", n),
		XLabel:  "k",
		Columns: AllAlgos,
	}
	for _, k := range []int{1, 2, 4, 8} {
		row, err := e.unrestrictedRow(queries, k, AllAlgos)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%d", k))
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Fig19 reproduces continuous queries vs route size (SF-like, D=0.01,
// k=1): routes are random walks without repeated nodes.
func Fig19(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
	e, err := sfEnv(s.seed(), n, 0.01, 1, s.bufferPages())
	if err != nil {
		return nil, err
	}
	defer e.close()
	rng := rand.New(rand.NewSource(s.seed() + 14))
	sizes := []int{1, 2, 4, 8, 16, 32}
	if s.Full {
		sizes = []int{1, 2, 4, 8, 16, 32, 64}
	}
	t := &Table{
		ID:      "Fig 19",
		Title:   fmt.Sprintf("continuous cost vs route size, SF-like |V|≈%d, D=0.01, k=1", n),
		XLabel:  "route",
		Columns: AllAlgos,
	}
	for _, size := range sizes {
		routes := make([][]graph.NodeID, s.queries())
		for i := range routes {
			routes[i] = gen.RandomWalkRoute(rng, e.g, size)
		}
		row := make([]Measure, len(AllAlgos))
		for ai, a := range AllAlgos {
			m, err := e.runWorkload(len(routes), func(i int) (*core.Result, error) {
				return e.expand(e.searcher, a, core.Request{
					Kind: core.KindContinuous, K: 1, Points: core.PointSet{Edge: e.pagedEP}, Route: routes[i],
				})
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", a, err)
			}
			row[ai] = m
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%d", size))
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// gridEnv builds a grid-map unrestricted environment.
func gridEnv(seed int64, nodes int, degree float64, d float64, maxK, bufferPages int) (*env, error) {
	g, err := gen.Grid(gen.GridConfig{Seed: seed, Nodes: nodes, Degree: degree})
	if err != nil {
		return nil, err
	}
	e, err := newEnv(g, bufferPages)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 15))
	if err := e.withEdgePoints(rng, max(2, int(d*float64(g.NumNodes())))); err != nil {
		_ = e.close()
		return nil, err
	}
	if err := e.materializeEdge(maxK); err != nil {
		_ = e.close()
		return nil, err
	}
	return e, nil
}

// Fig20a reproduces grid maps: cost vs |V| at degree 4.
func Fig20a(s Scale) (*Table, error) {
	sizes := []int{10000, 22500, 40000}
	if s.Full {
		sizes = []int{40000, 90000, 160000}
	}
	t := &Table{
		ID:      "Fig 20a",
		Title:   "grid maps: cost vs |V| (degree 4, D=0.01, k=1)",
		XLabel:  "|V|",
		Columns: AllAlgos,
	}
	for _, n := range sizes {
		e, err := gridEnv(s.seed(), n, 4, 0.01, 1, s.bufferPages())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 16))
		queries := gen.SampleQueries(rng, e.edgePts.Points(), s.queries())
		row, err := e.unrestrictedRow(queries, 1, AllAlgos)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%d", e.g.NumNodes()))
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Fig20b reproduces grid maps: cost vs average degree.
func Fig20b(s Scale) (*Table, error) {
	n := s.pick(40000, 160000)
	t := &Table{
		ID:      "Fig 20b",
		Title:   fmt.Sprintf("grid maps: cost vs degree (|V|=%d, D=0.01, k=1)", n),
		XLabel:  "degree",
		Columns: AllAlgos,
	}
	for _, deg := range []float64{4, 5, 6, 7} {
		e, err := gridEnv(s.seed(), n, deg, 0.01, 1, s.bufferPages())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 17))
		queries := gen.SampleQueries(rng, e.edgePts.Points(), s.queries())
		row, err := e.unrestrictedRow(queries, 1, AllAlgos)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%.0f", deg))
		t.Cells = append(t.Cells, row)
	}
	return t, nil
}

// Fig21 reproduces cost vs LRU buffer size (SF-like, D=0.01, k=1): at
// buffer 0 every access is physical and eager's repeated local expansions
// dominate; a small buffer flips the ranking.
func Fig21(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
	buffers := []int{0, 16, 64, 256, 1024}
	t := &Table{
		ID:      "Fig 21",
		Title:   fmt.Sprintf("cost vs buffer pages, SF-like |V|≈%d, D=0.01, k=1", n),
		XLabel:  "buffer",
		Columns: EagerLazy,
	}
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: s.seed(), Nodes: n})
	if err != nil {
		return nil, err
	}
	for _, buf := range buffers {
		e, err := newEnv(g, buf)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 18))
		if err := e.withEdgePoints(rng, max(2, int(0.01*float64(g.NumNodes())))); err != nil {
			return nil, err
		}
		// The point file shares the buffer budget.
		paged, err := points.NewPagedEdgeSet(e.edgePts, newMemPageFile(), buf)
		if err != nil {
			return nil, err
		}
		e.pagedEP = paged
		queries := gen.SampleQueries(rng, e.edgePts.Points(), s.queries())
		row, err := e.unrestrictedRow(queries, 1, EagerLazy)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%d", buf))
		t.Cells = append(t.Cells, row)
		_ = e.close()
	}
	return t, nil
}

// HubSubstrate compares all five substrates on a road-like restricted
// workload (node-resident points, D=0.01, k=1) across network sizes — the
// setting where 2-hop labels shine: every query is a handful of label
// intersections while the expansion algorithms traverse the network. Not a
// paper figure; it measures the extension against the paper's algorithms
// under the paper's cost model.
func HubSubstrate(s Scale) (*Table, error) {
	sizes := []int{10000, 20000}
	if s.Full {
		sizes = []int{40000, 90000, 175000}
	}
	t := &Table{
		ID:      "Hub",
		Title:   "hub-label substrate vs |V|, road-like restricted, D=0.01, k=1",
		XLabel:  "|V|",
		Columns: AllSubstrates,
	}
	for _, n := range sizes {
		g, err := gen.RoadNetwork(gen.RoadConfig{Seed: s.seed(), Nodes: n})
		if err != nil {
			return nil, err
		}
		e, err := newEnv(g, s.bufferPages())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 23))
		if err := e.withNodePoints(rng, max(2, int(0.01*float64(g.NumNodes())))); err != nil {
			return nil, err
		}
		if err := e.materializeNode(1); err != nil {
			return nil, err
		}
		if err := e.buildHubLabel(1); err != nil {
			return nil, err
		}
		queries := gen.SampleQueries(rng, e.nodePts.Points(), s.queries())
		row, err := e.restrictedRow(queries, 1, AllSubstrates, false)
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%d", g.NumNodes()))
		t.Cells = append(t.Cells, row)
		bst := e.hubBuild
		t.Notes = append(t.Notes, fmt.Sprintf(
			"HL build |V|=%d: %.3fs, %d workers, %d batches, %d pruned visits, %d resweeps, labels %dB compressed / %dB raw",
			g.NumNodes(), bst.Wall.Seconds(), bst.Workers, bst.Batches, bst.Pruned, bst.Resweeps,
			e.hubStore.PayloadBytes(), e.hubStore.RawBytes()))
		_ = e.close()
	}
	return t, nil
}

// updateAlgos are the two columns of Fig 22.
var updateAlgos = []Algo{"insert", "delete"}

// updateRow measures insertion and deletion maintenance cost on a prepared
// unrestricted environment with materialized lists.
func (e *env) updateRow(rng *rand.Rand, n int) ([]Measure, error) {
	el := gen.Edges(e.g)
	// Insertions at random locations (following the network distribution).
	ins, err := e.runWorkload(n, func(i int) (*core.Result, error) {
		ei := rng.Intn(len(el.U))
		pos := rng.Float64() * el.W[ei]
		p, err := e.edgePts.Place(el.U[ei], el.V[ei], pos)
		if err != nil {
			return nil, err
		}
		st, err := e.searcher.MatInsert(e.mat, p, core.Loc{U: el.U[ei], V: el.V[ei], Pos: pos})
		if err != nil {
			return nil, err
		}
		if err := e.mat.Flush(); err != nil {
			return nil, err
		}
		return &core.Result{Stats: st}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("insert: %w", err)
	}
	// Deletions of random existing points.
	pts := e.edgePts.Points()
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	if n > len(pts)-1 {
		n = len(pts) - 1
	}
	del, err := e.runWorkload(n, func(i int) (*core.Result, error) {
		p := pts[i]
		loc, ok := e.edgePts.Loc(p)
		if !ok {
			return nil, fmt.Errorf("point %d missing", p)
		}
		if err := e.edgePts.Delete(p); err != nil {
			return nil, err
		}
		st, err := e.searcher.MatDelete(e.mat, p, core.PointLoc(loc))
		if err != nil {
			return nil, err
		}
		if err := e.mat.Flush(); err != nil {
			return nil, err
		}
		return &core.Result{Stats: st}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("delete: %w", err)
	}
	return []Measure{ins, del}, nil
}

// Fig22a reproduces update cost vs density (SF-like, K=1).
func Fig22a(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
	t := &Table{
		ID:      "Fig 22a",
		Title:   fmt.Sprintf("update cost vs D, SF-like |V|≈%d, K=1", n),
		XLabel:  "density",
		Columns: updateAlgos,
	}
	for _, d := range densities {
		e, err := sfEnv(s.seed(), n, d, 1, s.bufferPages())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 19))
		row, err := e.updateRow(rng, s.queries())
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%.4f", d))
		t.Cells = append(t.Cells, row)
		_ = e.close()
	}
	return t, nil
}

// Fig22b reproduces update cost vs the number K of materialized neighbors
// (SF-like, D=0.01).
func Fig22b(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
	t := &Table{
		ID:      "Fig 22b",
		Title:   fmt.Sprintf("update cost vs K, SF-like |V|≈%d, D=0.01", n),
		XLabel:  "K",
		Columns: updateAlgos,
	}
	for _, k := range []int{1, 2, 4, 8} {
		e, err := sfEnv(s.seed(), n, 0.01, k, s.bufferPages())
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(s.seed() + 20))
		row, err := e.updateRow(rng, s.queries())
		if err != nil {
			return nil, err
		}
		t.Xs = append(t.Xs, fmt.Sprintf("%d", k))
		t.Cells = append(t.Cells, row)
		_ = e.close()
	}
	return t, nil
}

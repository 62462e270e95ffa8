package exp

import (
	"context"
	"fmt"
	"math/rand"

	"graphrnn"
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

// Table1 reproduces the ad-hoc DBLP queries: the point set is defined at
// query time by a predicate ("authors with exactly c papers in venue 0"),
// so materialization is impossible and only eager and lazy compete. The
// predicate count sweeps 0, 1, 2 with increasing selectivity. The DBLP
// graph is small enough to fit any reasonable buffer, so every query runs
// cold to expose the I/O difference.
func Table1(s Scale) (*Table, error) {
	co, err := graphrnn.GenerateCoauthorship(s.seed(), 0, 0, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Table 1",
		Title:   fmt.Sprintf("ad-hoc queries, DBLP-like |V|=%d |E|=%d, k=1", co.Graph.NumNodes(), co.Graph.NumEdges()),
		XLabel:  "papers",
		Columns: EagerLazy,
	}
	rng := rand.New(rand.NewSource(s.seed() + 1))
	return t, open(co.Graph, setup{buffer: DefaultBufferPages}, func(w *world) error {
		for _, count := range []int{0, 1, 2} {
			authors := co.AuthorsWithVenueCount(0, count)
			if len(authors) < 2 {
				return fmt.Errorf("exp: predicate papers=%d matches %d authors", count, len(authors))
			}
			// Shuffled, so point ids do not follow node order.
			rng.Shuffle(len(authors), func(i, j int) { authors[i], authors[j] = authors[j], authors[i] })
			w.node = w.db.NewNodePoints()
			for _, n := range authors {
				if _, err := w.node.Place(n); err != nil {
					return err
				}
			}
			x := fmt.Sprintf("=%d (%d pts)", count, len(authors))
			if err := w.rnnRow(t, x, w.sample(s.seed()+1, s.queries()), 1, true); err != nil {
				return err
			}
		}
		return nil
	})
}

// Table2 reproduces cost vs density on the DBLP-like graph: random
// "interesting" nodes at each density, k=1, eager vs lazy, cold queries.
func Table2(s Scale) (*Table, error) {
	co, err := graphrnn.GenerateCoauthorship(s.seed(), 0, 0, 0)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Table 2",
		Title:   fmt.Sprintf("cost vs density, DBLP-like |V|=%d, k=1", co.Graph.NumNodes()),
		XLabel:  "density",
		Columns: EagerLazy,
	}
	return t, open(co.Graph, setup{buffer: DefaultBufferPages}, func(w *world) error {
		for _, d := range densities {
			if err := w.place(setup{seed: s.seed() + 2, density: d}); err != nil {
				return err
			}
			if err := w.rnnRow(t, fmt.Sprintf("%.4f", d), w.sample(s.seed()+3, s.queries()), 1, true); err != nil {
				return err
			}
		}
		return nil
	})
}

// restricted is the BRITE / road setting of Figs 15-16 and the hub
// experiment: node-resident points at density d with materialized lists.
func (s Scale) restricted(seed int64, d float64, matK int) setup {
	return setup{buffer: s.bufferPages(), seed: seed, density: d, matK: matK}
}

// unrestricted is the SF-like / grid setting of Figs 17-22: edge-resident
// points at density d behind their point file, with materialized lists.
func (s Scale) unrestricted(seed int64, d float64, matK int) setup {
	return setup{buffer: s.bufferPages(), seed: seed, density: d, edge: true, pointBuffer: MatBufferPages, matK: matK}
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
		g, err := graphrnn.GenerateBrite(s.seed(), n, 4)
		if err != nil {
			return nil, err
		}
		err = open(g, s.restricted(s.seed()+7, 0.01, 1), func(w *world) error {
			return w.rnnRow(t, fmt.Sprintf("%d", n), w.sample(s.seed()+8, s.queries()), 1, false)
		})
		if err != nil {
			return nil, err
		}
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
	g, err := graphrnn.GenerateBrite(s.seed(), n, 4)
	if err != nil {
		return nil, err
	}
	for _, d := range densities {
		err := open(g, s.restricted(s.seed()+7, d, 1), func(w *world) error {
			return w.rnnRow(t, fmt.Sprintf("%.4f", d), w.sample(s.seed()+9, s.queries()), 1, false)
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
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
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	for _, d := range densities {
		err := open(g, s.unrestricted(s.seed()+11, d, 1), func(w *world) error {
			return w.rnnRow(t, fmt.Sprintf("%.4f", d), w.sample(s.seed()+12, s.queries()), 1, false)
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Fig18 reproduces cost vs k on the SF-like network (D=0.01).
func Fig18(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
	t := &Table{
		ID:      "Fig 18",
		Title:   fmt.Sprintf("cost vs k, SF-like |V|≈%d, D=0.01", n),
		XLabel:  "k",
		Columns: AllAlgos,
	}
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	return t, open(g, s.unrestricted(s.seed()+11, 0.01, 8), func(w *world) error {
		queries := w.sample(s.seed()+13, s.queries())
		for _, k := range []int{1, 2, 4, 8} {
			if err := w.rnnRow(t, fmt.Sprintf("%d", k), queries, k, false); err != nil {
				return err
			}
		}
		return nil
	})
}

// Fig19 reproduces continuous queries vs route size (SF-like, D=0.01,
// k=1): routes are random walks without repeated nodes.
func Fig19(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
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
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	return t, open(g, s.unrestricted(s.seed()+11, 0.01, 1), func(w *world) error {
		rng := rand.New(rand.NewSource(s.seed() + 14))
		for _, size := range sizes {
			routes := make([][]graphrnn.NodeID, s.queries())
			for i := range routes {
				routes[i] = w.db.RandomWalkRoute(rng.Int63(), size)
			}
			err := w.measure(t, fmt.Sprintf("%d", size), len(routes), false, func(a Algo, i int) (*graphrnn.Result, error) {
				return w.db.Run(context.Background(), graphrnn.Query{
					Kind: graphrnn.KindContinuous, Route: routes[i], K: 1,
					Points: w.over(a, -1), Algorithm: w.algorithm(a), Strict: true,
				})
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
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
		if err := s.gridRow(t, fmt.Sprintf("%d", n), n, 4, s.seed()+16); err != nil {
			return nil, err
		}
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
		if err := s.gridRow(t, fmt.Sprintf("%.0f", deg), n, deg, s.seed()+17); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// gridRow appends row x to t: one grid map (D=0.01, k=1).
func (s Scale) gridRow(t *Table, x string, nodes int, degree float64, querySeed int64) error {
	g, err := graphrnn.GenerateGrid(s.seed(), nodes, degree)
	if err != nil {
		return err
	}
	return open(g, s.unrestricted(s.seed()+15, 0.01, 1), func(w *world) error {
		return w.rnnRow(t, x, w.sample(querySeed, s.queries()), 1, false)
	})
}

// Fig21 reproduces cost vs LRU buffer size (SF-like, D=0.01, k=1): at
// buffer 0 every access is physical and eager's repeated local expansions
// dominate; a small buffer flips the ranking. The point file gets the same
// buffer budget as the adjacency file.
func Fig21(s Scale) (*Table, error) {
	n := s.pick(40000, 175000)
	t := &Table{
		ID:      "Fig 21",
		Title:   fmt.Sprintf("cost vs buffer pages, SF-like |V|≈%d, D=0.01, k=1", n),
		XLabel:  "buffer",
		Columns: EagerLazy,
	}
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	for _, buf := range []int{0, 16, 64, 256, 1024} {
		su := setup{buffer: buf, seed: s.seed() + 18, density: 0.01, edge: true, pointBuffer: buf}
		err := open(g, su, func(w *world) error {
			return w.rnnRow(t, fmt.Sprintf("%d", buf), w.sample(s.seed()+18, s.queries()), 1, false)
		})
		if err != nil {
			return nil, err
		}
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
		g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
		if err != nil {
			return nil, err
		}
		su := s.restricted(s.seed()+23, 0.01, 1)
		su.hubK = 1
		err = open(g, su, func(w *world) error {
			bst := w.hub.BuildStats()
			t.Notes = append(t.Notes, fmt.Sprintf(
				"HL build |V|=%d: %.3fs, %d workers, %d batches, %d pruned visits, %d resweeps, labels %dB paged",
				g.NumNodes(), bst.WallSeconds, bst.Workers, bst.Batches, bst.Pruned, bst.Resweeps, bst.LabelBytes))
			return w.rnnRow(t, fmt.Sprintf("%d", g.NumNodes()), w.sample(s.seed()+24, s.queries()), 1, false)
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// updateAlgos are the two columns of Fig 22.
var updateAlgos = []Algo{"insert", "delete"}

// updateRow appends row x to t: the maintenance cost of n insertions at
// random locations (following the network distribution) and n deletions of
// random points, through the set's one maintenance path, with the repaired
// lists flushed inside the measured operation. An update has no answer, so
// the columns have nothing to disagree on.
func (w *world) updateRow(t *Table, x string, seed int64, n int) error {
	type edge struct {
		u, v graphrnn.NodeID
		w    float64
	}
	var edges []edge
	w.db.Graph().Edges(func(u, v graphrnn.NodeID, wt float64) { edges = append(edges, edge{u, v, wt}) })
	rng := rand.New(rand.NewSource(seed))
	at := make([]graphrnn.Location, n)
	for i := range at {
		e := edges[rng.Intn(len(edges))]
		at[i] = graphrnn.EdgeLocation(e.u, e.v, rng.Float64()*e.w)
	}
	victims := w.points()
	rng.Shuffle(len(victims), func(i, j int) { victims[i], victims[j] = victims[j], victims[i] })
	n = min(n, len(victims)-1)
	return w.measure(t, x, n, false, func(c Algo, i int) (*graphrnn.Result, error) {
		var st graphrnn.Stats
		var err error
		if c == "insert" {
			_, st, err = w.edge.Insert(context.Background(), at[i], nil)
		} else {
			st, err = w.edge.Remove(context.Background(), victims[i], nil)
		}
		if err != nil {
			return nil, err
		}
		return &graphrnn.Result{Stats: st}, w.mat.Flush()
	})
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
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	for _, d := range densities {
		err := open(g, s.unrestricted(s.seed()+11, d, 1), func(w *world) error {
			return w.updateRow(t, fmt.Sprintf("%.4f", d), s.seed()+19, s.queries())
		})
		if err != nil {
			return nil, err
		}
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
	g, err := graphrnn.GenerateRoadNetwork(s.seed(), n)
	if err != nil {
		return nil, err
	}
	for _, k := range []int{1, 2, 4, 8} {
		err := open(g, s.unrestricted(s.seed()+11, 0.01, k), func(w *world) error {
			return w.updateRow(t, fmt.Sprintf("%d", k), s.seed()+20, s.queries())
		})
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

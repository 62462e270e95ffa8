package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"

	"graphrnn"
)

// query is one declarative query on the wire: the POST /query schema.
type query struct {
	Kind  string `json:"kind"`
	Node  *int   `json:"node,omitempty"`
	Route []int  `json:"route,omitempty"`
	K     int    `json:"k"`
	Algo  string `json:"algo,omitempty"`
}

// request is one HTTP request of a workload: a single query object, or a
// JSON array of them for a batch workload.
type request struct {
	path    string
	body    []byte
	batch   bool // body is a JSON array, answered by a results envelope
	queries []query
	class   int // index into the workload's class table
}

// class is one row of a workload's traffic mix.
type class struct {
	name  string // <kind>_<algo>, the suffix of the per-class client metrics
	share float64
	kind  string
	algo  string // "" lets the planner choose
	ks    []int
	route int // route length of continuous queries
}

// workload describes one benchmarked traffic mix and the server it runs
// against. The names are normative: later issues cite them.
type workload struct {
	name string
	why  string
	// How the server is opened, beyond the dataset: the rnnserver flags
	// and the in-process replay's options both derive from these.
	disk   bool // -disk: adjacency through the buffer pool
	buffer int  // -buffer: the graph tenant's page quota
	maxK   int  // -maxk: materialized K-NN lists (per shard when sharded)
	hubK   int  // -hublabel: hub-label index (per shard when sharded)
	shards int  // -shards: in-process scatter-gather

	classes []class
	batch   int // queries per request; 1 sends a single object
	conns   int // closed-loop reader connections
	// rate is the request rate the seed commit sustains on the reference
	// box, pinned to one CPU. It only sizes the fixed per-round request counts
	// (rate x seconds / rounds), so that both sides of a comparison do
	// identical work; it is not a target the load generator paces to.
	rate float64
	// writeRate, when positive, adds the open-loop writer connection and
	// makes rounds last as long as its schedule instead of a fixed count.
	writeRate float64
	// panel fixes the content of the requests — targets, depths, routes —
	// across workload seeds and across rounds: every round sends the same
	// requests, in an order the workload seed shuffles.
	// It is for a workload whose per-query cost varies so much by target
	// (coefficient of variation about 1 for an eager expansion) that the
	// thousand queries a run affords cannot pin a median: with seeded
	// targets the sampling noise alone spread p50_ms by 15 %.
	panel  bool
	setups int // server start-ups timed per run; setup_s is their median
	// rounds the timed traffic is cut into. A round is as short as its
	// figures allow — 200 requests for a p95 with ten samples beyond it,
	// a second for a CPU reading to 1 % — so that as many rounds as
	// possible fall between two bursts of interference.
	rounds int
	// ref is the reference class whose slices scale the rounds: the one
	// whose work is of the workload's kind (ref.go).
	ref    *refClass
	replay int // requests the traced run replays in-process
}

var ks124 = []int{1, 2, 4}

// ks12 keeps the expansion classes of expand_cold affordable: on this
// network one k=4 eager or lazy query costs about 70 ms against 10 ms at
// k=1, and a thousand requests must fit the run.
var ks12 = []int{1, 2}

// workloads is the benchmark's table, in reporting order.
var workloads = []workload{
	{
		name: "hub_point",
		why:  "hub-label point queries: the engine is a third of a request, so cmd/rnnserver, plan.go and net/http decide it",
		maxK: 4, hubK: 4,
		classes: []class{
			{name: "rnn_auto", share: 0.85, kind: "rnn", ks: ks124},
			{name: "continuous_auto", share: 0.15, kind: "continuous", ks: ks124, route: 4},
		},
		batch: 1, conns: 1, rate: 10500, setups: 3, rounds: 12, ref: &refLight, replay: 2000,
	},
	{
		name: "expand_cold",
		why:  "the paper's expansion algorithms with a buffer 7x smaller than the graph: internal/core, pq, DiskStore and pool eviction decide it",
		disk: true, buffer: 32, maxK: 4,
		classes: []class{
			{name: "rnn_eager", share: 0.35, kind: "rnn", algo: "eager", ks: ks12},
			{name: "rnn_lazy-ep", share: 0.20, kind: "rnn", algo: "lazy-ep", ks: ks12},
			{name: "rnn_lazy", share: 0.10, kind: "rnn", algo: "lazy", ks: []int{1}},
			{name: "rnn_auto", share: 0.15, kind: "rnn", ks: ks124},
			{name: "bichromatic_lazy-ep", share: 0.02, kind: "bichromatic", algo: "lazy-ep", ks: []int{1}},
			{name: "continuous_eager", share: 0.10, kind: "continuous", algo: "eager", ks: ks12, route: 8},
			{name: "knn_auto", share: 0.08, kind: "knn", ks: []int{4}},
		},
		batch: 1, conns: 1, rate: 140, panel: true, setups: 9, rounds: 6, ref: &refHeavy, replay: 300,
	},
	{
		name:   "shard_batch",
		why:    "32-query batches over 4 in-process shards: HTTP is amortised, so sharded.go fan-out, merge and re-verify decide it",
		shards: 4, hubK: 4,
		classes: []class{
			{name: "rnn_auto", share: 1, kind: "rnn", ks: []int{2}},
		},
		batch: 32, conns: 1, rate: 250, setups: 2, rounds: 12, ref: &refHeavy, replay: 200,
	},
	{
		name: "mixed_rw",
		why:  "hub-label reads beside 20 writes/s: maintenance takes the server write lock and repairs the index while queries wait",
		maxK: 4, hubK: 4,
		classes: []class{
			{name: "rnn_auto", share: 1, kind: "rnn", ks: ks124},
		},
		batch: 1, conns: 1, rate: 10500, writeRate: 20, setups: 3, rounds: 12, ref: &refLight, replay: 2000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serverFlags are the rnnserver flags beyond the dataset's.
func (w *workload) serverFlags() []string {
	f := []string{"-maxk", strconv.Itoa(w.maxK)}
	if w.disk {
		f = append(f, "-disk", "-buffer", strconv.Itoa(w.buffer))
	}
	if w.hubK > 0 {
		f = append(f, "-hublabel", strconv.Itoa(w.hubK))
	}
	if w.shards > 0 {
		f = append(f, "-shards", strconv.Itoa(w.shards))
	}
	return f
}

// perRound is the fixed request count of one timed round.
func (w *workload) perRound(seconds float64, rounds int) int {
	return max(int(math.Round(w.rate*seconds/float64(rounds))), 1)
}

// generator produces a workload's request sequence from the workload seed.
// Routes come from the dataset's graph; nothing else about the dataset
// influences the sequence.
type generator struct {
	w     *workload
	nodes int                                          // |V|: targets are uniform over the node ids
	walk  func(seed int64, size int) []graphrnn.NodeID // random-walk routes on the dataset's graph
	// content draws targets, depths and routes; order shuffles each block.
	// They are one stream seeded by the workload seed, except on a panel
	// workload, whose content comes from the dataset seed.
	content, order *rand.Rand
	panels         map[int][]request // a panel workload's block of each size, unshuffled
}

func newGenerator(w *workload, d *dataset, seed int64) *generator {
	// Mix the workload's name into the seed so the workloads of one run
	// do not share a target sequence.
	h := int64(0)
	for _, c := range w.name {
		h = h*131 + int64(c)
	}
	g := &generator{w: w, nodes: d.g.NumNodes(), walk: d.db.RandomWalkRoute, order: rand.New(rand.NewSource(seed*1000003 + h))}
	g.content = g.order
	if w.panel {
		g.content = rand.New(rand.NewSource(d.seed*1000003 + h))
	}
	return g
}

// block generates n requests whose class shares are exact up to rounding
// (largest remainder) and whose depths cycle through each class's ks, in
// seeded random order. Each timed round is one block, so every round
// carries the same mix.
func (g *generator) block(n int) ([]request, error) {
	if p, ok := g.panels[n]; ok {
		reqs := slices.Clone(p)
		g.order.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		return reqs, nil
	}
	reqs := make([]request, n)
	nth := make([]int, len(g.w.classes)) // queries generated so far, per class
	for i, c := range apportion(g.w.classes, n) {
		rq := request{path: "/query", class: c, queries: make([]query, g.w.batch)}
		for j := range rq.queries {
			rq.queries[j] = g.query(&g.w.classes[c], nth[c])
			nth[c]++
		}
		var err error
		if g.w.batch == 1 {
			rq.body, err = json.Marshal(rq.queries[0])
		} else {
			rq.path, rq.batch = "/query?parallelism=2", true
			rq.body, err = json.Marshal(rq.queries)
		}
		if err != nil {
			return nil, err
		}
		reqs[i] = rq
	}
	if g.w.panel {
		if g.panels == nil {
			g.panels = map[int][]request{}
		}
		g.panels[n] = slices.Clone(reqs)
	}
	g.order.Shuffle(n, func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, nil
}

// query draws the nth query of class c.
func (g *generator) query(c *class, nth int) query {
	q := query{Kind: c.kind, Algo: c.algo, K: c.ks[nth%len(c.ks)]}
	if c.kind == "continuous" {
		for _, n := range g.walk(g.content.Int63(), c.route) {
			q.Route = append(q.Route, int(n))
		}
		return q
	}
	n := g.content.Intn(g.nodes)
	q.Node = &n
	return q
}

// apportion assigns n slots to the classes by largest remainder and returns
// the class index of every slot, grouped by class.
func apportion(classes []class, n int) []int {
	counts := make([]int, len(classes))
	type rem struct {
		i int
		r float64
	}
	rems := make([]rem, len(classes))
	left := n
	for i, c := range classes {
		exact := c.share * float64(n)
		counts[i] = int(exact)
		left -= counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].r > rems[b].r })
	for j := 0; left > 0; j, left = j+1, left-1 {
		counts[rems[j%len(rems)].i]++
	}
	out := make([]int, 0, n)
	for i, c := range counts {
		for range c {
			out = append(out, i)
		}
	}
	return out
}

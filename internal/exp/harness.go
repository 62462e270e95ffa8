// Package exp is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6) on the public graphrnn API —
// the engine assembly every other caller uses. Each experiment generates
// the network family, opens it disk-backed (4 KB pages behind an LRU
// buffer), places the workload's points, builds the substrates its columns
// need (materialized lists, hub labels, the paged point file), runs every
// column over the same queries (sampled from the data distribution, the
// co-located point excluded) through DB.Run, and reports the paper's cost
// model: CPU seconds plus 10 ms per physical page transfer. Columns must
// agree on every answer, id by id, or the experiment fails.
//
// Default scales are laptop-sized; Scale{Full: true} switches to the
// paper's sizes. testdata/repro.golden pins the deterministic counters of
// the default scale and TestPaperShapes the findings they support.
package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"graphrnn"
)

// IOCostSeconds is the charge per random I/O used throughout Section 6.
const IOCostSeconds = 0.010

// DefaultBufferPages is the paper's 1 MB LRU buffer in 4 KB pages.
const DefaultBufferPages = 256

// MatBufferPages is the buffer quota of each substrate file beside the
// adjacency file: materialized lists, hub labels, the paged point set.
const MatBufferPages = 64

// Measure is the average per-query cost of one algorithm at one setting.
type Measure struct {
	IO  float64 // physical page transfers
	CPU float64 // seconds
	// Result size, for sanity reporting.
	Results float64

	// The exact workload totals behind the averages, which repro.golden
	// pins: page transfers, the work counters of every Result, and the
	// members returned.
	pages   int64
	work    graphrnn.Stats
	answers int
}

// Total applies the paper's cost model.
func (m Measure) Total() float64 { return m.CPU + m.IO*IOCostSeconds }

// Algo identifies an algorithm column, abbreviated as in Fig 15 ("E", "EM",
// "L", "LP").
type Algo string

const (
	AlgoEager  Algo = "E"
	AlgoEagerM Algo = "EM"
	AlgoLazy   Algo = "L"
	AlgoLazyEP Algo = "LP"
	// AlgoHub is the hub-label substrate ("HL"), beyond the paper: queries
	// answered by label intersection instead of network expansion.
	AlgoHub Algo = "HL"
	// AlgoAuto names no algorithm: the planner picks the substrate.
	AlgoAuto Algo = "AUTO"
)

// AllAlgos is the column order of the paper's figures.
var AllAlgos = []Algo{AlgoEager, AlgoEagerM, AlgoLazy, AlgoLazyEP}

// AllSubstrates adds the hub-label column to the paper's four algorithms.
var AllSubstrates = []Algo{AlgoEager, AlgoEagerM, AlgoLazy, AlgoLazyEP, AlgoHub}

// EagerLazy restricts to the two basic algorithms (Tables 1-2, Fig 21).
var EagerLazy = []Algo{AlgoEager, AlgoLazy}

// Scale selects experiment sizes.
type Scale struct {
	// Full runs the paper-scale configuration.
	Full bool
	// Queries overrides the workload size (default 50 full / 20 quick).
	Queries int
	// Seed makes the whole experiment deterministic.
	Seed int64
}

func (s Scale) pick(quick, full int) int {
	if s.Full {
		return full
	}
	return quick
}

func (s Scale) queries() int {
	if s.Queries > 0 {
		return s.Queries
	}
	if s.Full {
		return 50
	}
	return 20
}

func (s Scale) seed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 2006
}

// bufferPages keeps the buffer:graph ratio of the paper (1 MB against the
// 175K-node SF map) when experiments run at the reduced default scale;
// otherwise a quarter-scale graph would fit the buffer entirely and hide
// the I/O behaviour Figs 15-21 measure.
func (s Scale) bufferPages() int {
	if s.Full {
		return DefaultBufferPages
	}
	return 64
}

// world is one experiment setting, assembled on the public API: the
// disk-backed DB, the workload's point set in its one residency, and the
// substrates built over it. open owns it.
type world struct {
	db    *graphrnn.DB
	node  *graphrnn.NodePoints      // restricted workloads
	edge  *graphrnn.EdgePoints      // unrestricted workloads ...
	paged *graphrnn.PagedEdgePoints // ... read through their point file
	mat   *graphrnn.Materialization
	hub   *graphrnn.HubLabelIndex
}

// setup says what open assembles before the experiment body runs.
type setup struct {
	buffer int // adjacency LRU pages; 0 = none, every access a transfer

	// The point set: placed from seed at density D = |P|/|V| (0 = none; the
	// body places its own), on nodes or — edge — on edges behind a paged
	// point file with a buffer quota of pointBuffer pages.
	seed        int64
	density     float64
	edge        bool
	pointBuffer int

	matK, hubK int // substrates over the set, maxK each; 0 = not built
}

// open serves g as su describes, runs body on it, and closes everything
// body or open itself attached, on every return path; an experiment that
// leaves a tenant on the pool it opened fails.
func open(g *graphrnn.Graph, su setup, body func(*world) error) (err error) {
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: su.buffer, NoBuffer: su.buffer == 0})
	if err != nil {
		return err
	}
	w := &world{db: db}
	defer func() { err = errors.Join(err, w.close()) }()
	if su.density > 0 {
		if err := w.place(su); err != nil {
			return err
		}
	}
	if su.matK > 0 {
		if err := w.materialize(su.matK); err != nil {
			return err
		}
	}
	if su.hubK > 0 {
		if err := w.hubLabel(su.hubK); err != nil {
			return err
		}
	}
	return body(w)
}

// close releases the substrates before the DB they read through, and
// checks that nothing stayed attached to the DB's pool.
func (w *world) close() error {
	var errs []error
	if w.hub != nil {
		errs = append(errs, w.hub.Close())
	}
	if w.mat != nil {
		errs = append(errs, w.mat.Close())
	}
	if w.paged != nil {
		errs = append(errs, w.paged.Close())
	}
	errs = append(errs, w.db.Close())
	if left := w.db.PoolStats().Tenants; len(left) > 0 {
		errs = append(errs, fmt.Errorf("exp: %d tenant(s) left attached to the pool, first %q", len(left), left[0].Name))
	}
	return errors.Join(errs...)
}

// place puts the point set of su, max(2, D·|V|) random points, on nodes
// or, su.edge, on edges with their paged snapshot.
func (w *world) place(su setup) (err error) {
	count := max(2, int(su.density*float64(w.db.Graph().NumNodes())))
	if !su.edge {
		w.node, err = w.db.PlaceRandomNodePoints(su.seed, count)
		return err
	}
	if w.edge, err = w.db.PlaceRandomEdgePoints(su.seed, count); err != nil {
		return err
	}
	w.paged, err = w.edge.Paged(su.pointBuffer)
	return err
}

// materialize builds the K-NN lists of the workload's set.
func (w *world) materialize(maxK int) (err error) {
	opt := &graphrnn.MatOptions{BufferPages: MatBufferPages}
	if w.node != nil {
		w.mat, err = w.db.MaterializeNodePoints(w.node, maxK, opt)
	} else {
		w.mat, err = w.db.MaterializeEdgePoints(w.edge, maxK, opt)
	}
	return err
}

// hubLabel builds the 2-hop labeling — batched across every core, which
// cannot change the labels — and serves it from a paged file, so label I/O
// is counted like every other substrate's.
func (w *world) hubLabel(maxK int) (err error) {
	w.hub, err = w.db.BuildHubLabelIndex(w.node, maxK, &graphrnn.HubLabelOptions{
		DiskBacked:  true,
		BufferPages: MatBufferPages,
		Build:       graphrnn.BuildOptions{Workers: -1},
	})
	return err
}

// points returns the ids of the workload's set.
func (w *world) points() []graphrnn.PointID {
	if w.node != nil {
		return w.node.Points()
	}
	return w.edge.Points()
}

// sample draws n query points from the workload's set, with replacement:
// queries follow the data distribution (Section 6).
func (w *world) sample(seed int64, n int) []graphrnn.PointID {
	rng, ids := rand.New(rand.NewSource(seed)), w.points()
	out := make([]graphrnn.PointID, n)
	for i := range out {
		out[i] = ids[rng.Intn(len(ids))]
	}
	return out
}

// algorithm maps a column onto the engine's strategy, bound to the
// world's substrates.
func (w *world) algorithm(a Algo) graphrnn.Algorithm {
	switch a {
	case AlgoEager:
		return graphrnn.Eager()
	case AlgoEagerM:
		return graphrnn.EagerM(w.mat)
	case AlgoLazy:
		return graphrnn.Lazy()
	case AlgoLazyEP:
		return graphrnn.LazyEP()
	case AlgoHub:
		return graphrnn.HubLabel(w.hub)
	}
	return graphrnn.Auto()
}

// over returns the view column a queries, point hide hidden (a negative id
// hides nothing): the node set, or the paged point file — except eager-M,
// which reads the in-memory set its lists track (the planner refuses a
// materialization over a snapshot).
func (w *world) over(a Algo, hide graphrnn.PointID) graphrnn.PointSet {
	switch {
	case w.node != nil:
		return w.node.Excluding(hide)
	case a == AlgoEagerM:
		return w.edge.Excluding(hide)
	}
	return w.paged.Excluding(hide)
}

// rnn answers the paper's monochromatic workload item: RkNN from data point
// qp's own location, qp hidden, by column a and nothing else.
func (w *world) rnn(a Algo, qp graphrnn.PointID, k int, opt graphrnn.QueryOptions) (*graphrnn.Result, error) {
	q := graphrnn.Query{K: k, Points: w.over(a, qp), Algorithm: w.algorithm(a), Strict: true, QueryOptions: opt}
	var ok bool
	if w.node != nil {
		var n graphrnn.NodeID
		n, ok = w.node.NodeOf(qp)
		q.Target = graphrnn.NodeLocation(n)
	} else {
		q.Target, ok = w.edge.LocationOf(qp)
	}
	if !ok {
		return nil, fmt.Errorf("exp: query point %d is not in the set", qp)
	}
	return w.db.Run(context.Background(), q)
}

// rnnRow appends row x to t: the monochromatic workload over queries at
// depth k, answered by each column of t.
func (w *world) rnnRow(t *Table, x string, queries []graphrnn.PointID, k int, coldPerQuery bool) error {
	return w.measure(t, x, len(queries), coldPerQuery, func(a Algo, i int) (*graphrnn.Result, error) {
		return w.rnn(a, queries[i], k, graphrnn.QueryOptions{})
	})
}

// measure appends row x to t: per column of t, run(column, i) for the n
// items of one workload, averaged. It is the one loop every experiment is
// measured by. A column starts from a cold pool and keeps it warm across
// its items, as the paper averages 50 queries against one LRU buffer —
// unless coldPerQuery, for graphs small enough to fit any buffer. Page
// transfers are the pool's read + write delta around the call; the work
// counters are the Result's own. A partial Result beside a typed execution
// error counts as measured; complete answers to item i must be identical,
// id by id, in every column.
func (w *world) measure(t *Table, x string, n int, coldPerQuery bool, run func(c Algo, i int) (*graphrnn.Result, error)) error {
	row := make([]Measure, len(t.Columns))
	answers := make([][]graphrnn.PointID, n)
	answered := make([]Algo, n)
	for ci, c := range t.Columns {
		m := &row[ci]
		for i := 0; i < n; i++ {
			if i == 0 || coldPerQuery {
				if err := w.db.DropCache(); err != nil {
					return err
				}
			}
			before := w.transfers()
			t0 := time.Now()
			res, err := run(c, i)
			m.CPU += time.Since(t0).Seconds()
			if err != nil && !graphrnn.IsExecErr(err) {
				return fmt.Errorf("%s row %s, %s item %d: %w", t.ID, x, c, i, err)
			}
			m.pages += w.transfers() - before
			m.work.Add(res.Stats)
			m.answers += len(res.Points)
			switch {
			case err != nil: // partial: nothing to agree on
			case answered[i] == "":
				answers[i], answered[i] = res.Points, c
			case !slices.Equal(answers[i], res.Points):
				return fmt.Errorf("%s row %s, item %d: %s answers %v, %s answers %v",
					t.ID, x, i, answered[i], answers[i], c, res.Points)
			}
		}
		m.IO = float64(m.pages) / float64(n)
		m.CPU /= float64(n)
		m.Results = float64(m.answers) / float64(n)
	}
	t.Xs = append(t.Xs, x)
	t.Cells = append(t.Cells, row)
	return nil
}

// transfers is the pool-wide count of physical page reads and writes.
func (w *world) transfers() int64 {
	st := w.db.PoolStats()
	return st.Reads + st.Writes
}

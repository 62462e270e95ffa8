package graphrnn_test

// Execution-model coverage: cancellation, deadlines and budgets threaded
// through every algorithm (run with -race), upfront deadline checks doing
// no I/O, partial results, the shared buffer pool with per-tenant quotas,
// batch fail-fast/cancellation, and the regression test for hub-label
// stats surviving to the public API.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"graphrnn"
	"graphrnn/internal/exec"
)

type ctxEnv struct {
	db   *graphrnn.DB
	ps   *graphrnn.NodePoints
	mat  *graphrnn.Materialization
	eps  *graphrnn.EdgePoints
	emat *graphrnn.Materialization
}

// newCtxEnv builds a workload slow enough that a millisecond-scale
// deadline reliably lands mid-expansion: a 6400-node grid with few points,
// so every algorithm expands large regions per query.
func newCtxEnv(t *testing.T, diskBacked bool) *ctxEnv {
	t.Helper()
	g, err := graphrnn.GenerateGrid(7, 6400, 4)
	if err != nil {
		t.Fatal(err)
	}
	var opt *graphrnn.Options
	if diskBacked {
		opt = &graphrnn.Options{DiskBacked: true, BufferPages: 16}
	}
	db, err := graphrnn.Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := db.PlaceRandomEdgePoints(9, 24)
	if err != nil {
		t.Fatal(err)
	}
	emat, err := db.MaterializeEdgePoints(eps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &ctxEnv{db: db, ps: ps, mat: mat, eps: eps, emat: emat}
}

func (e *ctxEnv) algos() map[string]graphrnn.Algorithm {
	return map[string]graphrnn.Algorithm{
		"eager":   graphrnn.Eager(),
		"lazy":    graphrnn.Lazy(),
		"lazy-ep": graphrnn.LazyEP(),
		"eager-m": graphrnn.EagerM(e.mat),
		"brute":   graphrnn.BruteForce(),
	}
}

func (e *ctxEnv) slowQuery(t *testing.T) (graphrnn.NodePointsView, graphrnn.NodeID) {
	t.Helper()
	qp := e.ps.Points()[0]
	qnode, _ := e.ps.NodeOf(qp)
	return e.ps.Excluding(qp), qnode
}

// slowQueries returns the slow query at k under every algorithm, in both
// residencies: the node-resident rows carry the bare algorithm name, the
// edge-resident ones (a query at an excluded edge point's position, over
// the one walker's point-arrival paths) an "edge-" prefix.
func (e *ctxEnv) slowQueries(t *testing.T, k int) map[string]graphrnn.Query {
	t.Helper()
	view, qnode := e.slowQuery(t)
	ep := e.eps.Points()[0]
	eloc, _ := e.eps.LocationOf(ep)
	out := make(map[string]graphrnn.Query)
	for name, algo := range e.algos() {
		out[name] = rnnQuery(view, qnode, k, algo)
		if name == "eager-m" {
			algo = graphrnn.EagerM(e.emat)
		}
		out["edge-"+name] = edgeRNNQuery(e.eps.Excluding(ep), eloc, k, algo)
	}
	return out
}

// TestDeadlineMidExpansion: a deadline far shorter than the query lands
// mid-flight on each of the five algorithms; the query must return a typed
// ErrDeadlineExceeded promptly, with partial stats proving it both started
// and stopped early. A timer may miss the expansion on a loaded box, and the
// test then skips; TestCancelAtMember holds the contract without a clock.
func TestDeadlineMidExpansion(t *testing.T) {
	e := newCtxEnv(t, false)
	for name, q := range e.slowQueries(t, 4) {
		t.Run(name, func(t *testing.T) {
			// Baseline: the full query finishes and does real work.
			full, err := e.db.Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			fullWork := full.Stats.NodesExpanded + full.Stats.NodesScanned
			if fullWork < 1000 {
				t.Fatalf("workload too small to interrupt: %d nodes", fullWork)
			}
			// A deadline lands mid-flight only if it is shorter than the
			// query and longer than the time to the query's first poll —
			// neither is a given on a loaded (or a fast) box. A run that
			// expired at start (empty partial result) says nothing about
			// mid-flight behaviour and is retried with a doubled timeout;
			// one that finished is retried with a halved one.
			var elapsed time.Duration
			var work int64
			timeout := time.Millisecond
			for attempt := 0; work == 0; attempt++ {
				if attempt == 10 {
					t.Skip("no deadline landed mid-flight in 10 attempts on this machine")
				}
				start := time.Now()
				res, err := e.db.Run(context.Background(), bounded(q, graphrnn.QueryOptions{Timeout: timeout}))
				elapsed = time.Since(start)
				if err == nil {
					timeout /= 2
					continue
				}
				if !errors.Is(err, graphrnn.ErrDeadlineExceeded) {
					t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
				}
				if !graphrnn.IsExecErr(err) {
					t.Fatalf("IsExecErr(%v) = false", err)
				}
				if res == nil {
					t.Fatal("no partial result alongside the exec error")
				}
				work = res.Stats.NodesExpanded + res.Stats.NodesScanned
				if work == 0 {
					expiredAtStart(t, res)
					timeout *= 2
				}
			}
			if work >= fullWork {
				t.Fatalf("interrupted query did all the work: %d >= %d", work, fullWork)
			}
			if elapsed > 5*time.Second {
				t.Fatalf("abandoning the query took %v", elapsed)
			}
		})
	}
}

// TestCancelMidExpansion cancels the context from another goroutine while
// each algorithm runs, asserting prompt return with ErrCanceled and no
// goroutine leak. Run with -race, this also exercises the pooled scratch
// under early returns. It is the smoke test of the timer path, and skips
// when no cancel lands mid-flight; TestCancelAtMember holds the contract.
func TestCancelMidExpansion(t *testing.T) {
	e := newCtxEnv(t, false)
	before := runtime.NumGoroutine()
	for name, q := range e.slowQueries(t, 4) {
		t.Run(name, func(t *testing.T) {
			canceled := false
			for attempt := 0; attempt < 20 && !canceled; attempt++ {
				ctx, cancel := context.WithCancel(context.Background())
				go func() {
					time.Sleep(500 * time.Microsecond)
					cancel()
				}()
				res, err := e.db.Run(ctx, q)
				cancel()
				if err == nil {
					continue // finished before the cancel landed; retry
				}
				if !errors.Is(err, graphrnn.ErrCanceled) {
					t.Fatalf("err = %v, want ErrCanceled", err)
				}
				if res == nil {
					t.Fatal("no partial result alongside ErrCanceled")
				}
				canceled = true
			}
			if !canceled {
				t.Skip("query always finished before the cancel on this machine")
			}
			// The pooled scratch must be intact: the same query still
			// answers correctly after the aborted runs.
			oracle := q
			oracle.Algorithm = graphrnn.BruteForce()
			want, err := e.db.Run(context.Background(), oracle)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.db.Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !samePoints(got.Points, want.Points) {
				t.Fatalf("after cancellations: got %v, want %v", got.Points, want.Points)
			}
		})
	}
	// Cancellation must not leave worker goroutines behind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, g)
	}
}

// triggerCtx is a context that ends when the test says so, not when a
// clock does: fire closes Done and sets Err. Its AfterFunc lets
// context.WithCancel (which DB.Stream wraps every context in) end the
// derived context inside fire, on the caller's goroutine, instead of from
// a watcher goroutine of its own.
type triggerCtx struct {
	context.Context // Background: no deadline, no values
	done            chan struct{}
	err             error
	stops           []func()
}

func newTriggerCtx() *triggerCtx {
	return &triggerCtx{Context: context.Background(), done: make(chan struct{})}
}

func (c *triggerCtx) Done() <-chan struct{} { return c.done }

func (c *triggerCtx) Err() error {
	select {
	case <-c.done:
		return c.err
	default:
		return nil
	}
}

// AfterFunc registers f to run inside fire. Only the consumer's goroutine
// calls fire, and WithCancel registers before Stream starts its producer.
func (c *triggerCtx) AfterFunc(f func()) func() bool {
	c.stops = append(c.stops, f)
	return func() bool { return false }
}

// fire ends the context with err: context.Canceled, or
// context.DeadlineExceeded standing in for a deadline that passed.
func (c *triggerCtx) fire(err error) {
	c.err = err
	close(c.done)
	for _, f := range c.stops {
		f()
	}
}

// TestCancelAtMember proves the cancellation and deadline contract without a
// clock: the consumer of DB.Stream ends the query's context itself at the
// m-th member it receives, on every substrate, in memory and disk-backed,
// for several m. The query is bichromatic with few sites, so its answer
// holds far more members than m plus Stream's 64-member buffer: when the
// context ends, the producer cannot have finished, and its next poll must
// stop it. Every run must then end with the typed error, having yielded a
// partial answer (at least m distinct members, all in the full answer, not
// all of it); the same query then answers in full again (the pooled
// scratch is intact); and no goroutine is left behind.
// TestCancelMidExpansion and TestDeadlineMidExpansion stay as the smoke
// test of the real timer path.
func TestCancelAtMember(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(41, 1500)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	const k, streamBuffer = 2, 64
	ms := []int{1, 8, 32}
	for _, res := range []struct {
		name string
		opt  *graphrnn.Options
	}{{"memory", nil}, {"disk", &graphrnn.Options{DiskBacked: true, BufferPages: 16}}} {
		db, err := graphrnn.OpenWithLayout(g, res.opt, graphrnn.ClusteredLayout())
		if err != nil {
			t.Fatal(err)
		}
		ps, err := db.PlaceRandomNodePoints(42, 300)
		if err != nil {
			t.Fatal(err)
		}
		sites, err := db.PlaceRandomNodePoints(43, 4)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := db.MaterializeNodePoints(sites, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		hub, err := db.BuildHubLabelIndex(sites, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		qnode, _ := ps.NodeOf(ps.Points()[0])
		for _, algo := range []graphrnn.Algorithm{graphrnn.Eager(), graphrnn.Lazy(), graphrnn.LazyEP(),
			graphrnn.EagerM(mat), graphrnn.BruteForce(), graphrnn.HubLabel(hub)} {
			q := biQuery(ps, sites, qnode, k, algo)
			full, err := db.Run(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Points) <= ms[len(ms)-1]+streamBuffer+1 {
				t.Fatalf("%s/%s: %d members cannot outlast the stream's buffer", res.name, algo, len(full.Points))
			}
			member := map[graphrnn.PointID]bool{}
			for _, p := range full.Points {
				member[p] = true
			}
			for _, trigger := range []struct {
				err, want error
			}{{context.Canceled, graphrnn.ErrCanceled}, {context.DeadlineExceeded, graphrnn.ErrDeadlineExceeded}} {
				for _, m := range ms {
					name := fmt.Sprintf("%s/%s/%v/m=%d", res.name, algo, trigger.want, m)
					ctx := newTriggerCtx()
					var got []graphrnn.PointID
					var serr error
					for h, err := range db.Stream(ctx, q) {
						if err != nil {
							serr = err
							break
						}
						if !member[h.P] || slices.Contains(got, h.P) {
							t.Fatalf("%s: streamed %d, a duplicate or not in the answer %v", name, h.P, full.Points)
						}
						if got = append(got, h.P); len(got) == m {
							ctx.fire(trigger.err)
						}
					}
					if !errors.Is(serr, trigger.want) || !graphrnn.IsExecErr(serr) {
						t.Fatalf("%s: stream ended with %v after %d of %d members, want %v", name, serr, len(got), len(full.Points), trigger.want)
					}
					if len(got) < m || len(got) >= len(full.Points) {
						t.Fatalf("%s: partial answer of %d members, want %d to %d", name, len(got), m, len(full.Points)-1)
					}
					again, err := db.Run(context.Background(), q)
					if err != nil || !samePoints(again.Points, full.Points) {
						t.Fatalf("%s: the next run answered %v, %v; want %v", name, again.Points, err, full.Points)
					}
				}
			}
		}
		if err := errors.Join(hub.Close(), mat.Close(), db.Close()); err != nil {
			t.Fatal(err)
		}
	}
	// Every producer has returned; wait for their goroutines to exit.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// expiredAtStart asserts the partial Result of a query that was stopped
// before it started: present, planned, and empty.
func expiredAtStart(t *testing.T, res *graphrnn.Result) {
	t.Helper()
	if res == nil {
		t.Fatal("no partial result alongside the exec error")
	}
	if res.Plan.Reason == "" {
		t.Fatalf("partial result carries no plan: %+v", res.Plan)
	}
	if len(res.Points) != 0 || len(res.Neighbors) != 0 || res.Stats != (graphrnn.Stats{}) {
		t.Fatalf("unstarted query reports work: %+v", res)
	}
}

// TestExpiredDeadlineNoIO: a query issued with an already-expired deadline
// fails upfront and performs no page I/O at all — on Run, Stream and
// RunBatch alike.
func TestExpiredDeadlineNoIO(t *testing.T) {
	e := newCtxEnv(t, true)
	view, qnode := e.slowQuery(t)
	e.db.BufferPool().ResetStats()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for name, algo := range e.algos() {
		res, err := e.db.Run(ctx, rnnQuery(view, qnode, 2, algo))
		if !errors.Is(err, graphrnn.ErrDeadlineExceeded) {
			t.Fatalf("%s: err = %v, want ErrDeadlineExceeded", name, err)
		}
		expiredAtStart(t, res)
		var streamErr error
		for _, streamErr = range e.db.Stream(ctx, rnnQuery(view, qnode, 2, algo)) {
		}
		if !errors.Is(streamErr, graphrnn.ErrDeadlineExceeded) {
			t.Fatalf("%s: stream ended with %v, want ErrDeadlineExceeded", name, streamErr)
		}
	}
	rep := e.db.RunBatch(ctx, []graphrnn.Query{rnnQuery(view, qnode, 2, graphrnn.Eager())}, nil)
	if !errors.Is(rep.Results[0].Err, graphrnn.ErrDeadlineExceeded) {
		t.Fatalf("batch entry: err = %v, want ErrDeadlineExceeded", rep.Results[0].Err)
	}
	expiredAtStart(t, rep.Results[0].Result)
	// Hub-label lookups honor the expired deadline too.
	idx, err := e.db.BuildHubLabelIndex(e.ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.db.BufferPool().ResetStats()
	if _, err := e.db.Run(ctx, rnnQuery(view, qnode, 2, graphrnn.HubLabel(idx))); !errors.Is(err, graphrnn.ErrDeadlineExceeded) {
		t.Fatalf("hub-label: err = %v, want ErrDeadlineExceeded", err)
	}
	if st := e.db.PoolStats(); st.Reads != 0 || st.Hits != 0 {
		t.Fatalf("expired-deadline queries touched pages: %+v", st.IOStats)
	}
}

// TestBudgetExceeded: MaxNodes stops a query within one polling stride of
// the budget; MaxIOReads stops a disk-backed query.
func TestBudgetExceeded(t *testing.T) {
	e := newCtxEnv(t, false)
	for name, q := range e.slowQueries(t, 4) {
		t.Run(name, func(t *testing.T) {
			const budget = 500
			res, err := e.db.Run(context.Background(), bounded(q, graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: budget}}))
			if !errors.Is(err, graphrnn.ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			if res == nil {
				t.Fatal("no partial result alongside ErrBudgetExceeded")
			}
			work := res.Stats.NodesExpanded + res.Stats.NodesScanned
			if work <= budget/2 || work > budget+exec.CheckStride {
				t.Fatalf("stopped at %d nodes, budget %d", work, budget)
			}
		})
	}
	// A budget that trips inside a range-NN probe of the edge-resident
	// eager walk — the exit that once returned a nil Result.
	t.Run("edge-eager-in-probe", func(t *testing.T) {
		g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
		if err != nil {
			t.Fatal(err)
		}
		db, err := graphrnn.Open(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		eps, err := db.PlaceRandomEdgePoints(2008, g.NumNodes()/100)
		if err != nil {
			t.Fatal(err)
		}
		ep := eps.Points()[0]
		loc, _ := eps.LocationOf(ep)
		q := edgeRNNQuery(eps.Excluding(ep), loc, 2, graphrnn.Eager())
		// Most of the walk's pops happen inside probes, so most budgets
		// trip there; a few of them make sure one does.
		for _, budget := range []int64{1000, 2000, 3000, 4000} {
			res, err := db.Run(context.Background(), bounded(q, graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: budget}}))
			if !errors.Is(err, graphrnn.ErrBudgetExceeded) {
				t.Fatalf("budget %d: err = %v, want ErrBudgetExceeded", budget, err)
			}
			if res == nil {
				t.Fatalf("budget %d: no partial result alongside ErrBudgetExceeded", budget)
			}
			if res.Stats.NodesScanned == 0 || res.Stats.RangeNN == 0 {
				t.Fatalf("budget %d: partial result carries no sub-expansion work: %+v", budget, res.Stats)
			}
		}
	})
	t.Run("io", func(t *testing.T) {
		disk := newCtxEnv(t, true)
		dview, dq := disk.slowQuery(t)
		if err := disk.db.DropCache(); err != nil {
			t.Fatal(err)
		}
		res, err := disk.db.Run(context.Background(), bounded(rnnQuery(dview, dq, 4, graphrnn.Eager()), graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxIOReads: 4}}))
		if !errors.Is(err, graphrnn.ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
		if res == nil {
			t.Fatal("no partial result alongside ErrBudgetExceeded")
		}
	})
}

// TestBudgetPartialAnswers holds the execution contract of budgets on every
// substrate and query kind, both residencies and maintenance: a query
// stopped by MaxNodes or MaxIOReads returns ErrBudgetExceeded beside a
// non-nil Result carrying its Plan, every member it confirmed before
// stopping is in the unbounded answer, and it stops within one polling
// stride of its budget — the bound a missing poll breaks. The graph, the
// lists, the edge points and the labels are paged and every run starts
// from a cold buffer, so an I/O budget trips hub-label too. Each expansion
// substrate must return a non-empty partial answer somewhere in the table,
// so the subset check is never vacuous.
func TestBudgetPartialAnswers(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(31, 3000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ps, err := db.PlaceRandomNodePoints(32, 60)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := db.PlaceRandomNodePoints(33, 30)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := db.PlaceRandomEdgePoints(35, 60)
	if err != nil {
		t.Fatal(err)
	}
	mats := map[graphrnn.PointSet]*graphrnn.Materialization{}
	hubs := map[graphrnn.PointSet]*graphrnn.HubLabelIndex{}
	for _, set := range []*graphrnn.NodePoints{ps, sites} {
		if mats[set], err = db.MaterializeNodePoints(set, 4, nil); err != nil {
			t.Fatal(err)
		}
		defer mats[set].Close()
		if hubs[set], err = db.BuildHubLabelIndex(set, 4, &graphrnn.HubLabelOptions{DiskBacked: true}); err != nil {
			t.Fatal(err)
		}
		defer hubs[set].Close()
	}
	if mats[eps], err = db.MaterializeEdgePoints(eps, 4, nil); err != nil {
		t.Fatal(err)
	}
	defer mats[eps].Close()
	ctx := context.Background()
	cold := func(q graphrnn.Query) (*graphrnn.Result, int64, error) {
		t.Helper()
		if err := db.DropCache(); err != nil {
			t.Fatal(err)
		}
		before := db.PoolStats().Reads
		res, err := db.Run(ctx, q)
		return res, db.PoolStats().Reads - before, err
	}
	// The rnn query runs at the first point with reverse neighbors whose
	// label spans two pages, so a one-page I/O budget stops even
	// hub-label's single-label rnn query.
	var qp graphrnn.PointID
	var qnode graphrnn.NodeID
	for _, qp = range ps.Points() {
		qnode, _ = ps.NodeOf(qp)
		res, reads, err := cold(rnnQuery(ps.Excluding(qp), qnode, 4, graphrnn.HubLabel(hubs[ps])))
		if err != nil {
			t.Fatal(err)
		}
		if reads > 1 && len(res.Points) > 0 {
			break
		}
	}
	view := ps.Excluding(qp)
	route := db.RandomWalkRoute(34, 6)
	ep := eps.Points()[0]
	eloc, _ := eps.LocationOf(ep)

	// A node budget trips at the first poll past it, and the expansion
	// loops poll at least every exec.CheckStride pops. An I/O budget trips
	// at the first poll past it too, but the pages read between two polls
	// vary by family. Expansion: a sub-expansion pops up to CheckStride
	// nodes between polls, and their adjacency records share pages — the
	// paged layout keeps neighbours together — so the table measures at
	// most 7 pages past the budget. Hub-label polls after each label, and
	// the largest label here (54 entries, 648 bytes) is under a page, so
	// it is read in at most two chunks: two pages past.
	const expansionIOSlack, hubIOSlack = 7, 2
	type cell struct {
		sub, kind string
		q         graphrnn.Query
	}
	var cells []cell
	nodeKinds := []struct {
		name  string
		over  *graphrnn.NodePoints // the set eager-M's lists and the hub index cover
		query func(graphrnn.Algorithm) graphrnn.Query
	}{
		{"rnn", ps, func(a graphrnn.Algorithm) graphrnn.Query { return rnnQuery(view, qnode, 4, a) }},
		{"bichromatic", sites, func(a graphrnn.Algorithm) graphrnn.Query { return biQuery(ps, sites, qnode, 2, a) }},
		{"continuous", ps, func(a graphrnn.Algorithm) graphrnn.Query { return routeQuery(ps, route, 2, a) }},
	}
	substrates := []struct {
		name string
		edge bool // answers an edge-resident set too
		algo func(over graphrnn.PointSet) graphrnn.Algorithm
	}{
		{"eager", true, func(graphrnn.PointSet) graphrnn.Algorithm { return graphrnn.Eager() }},
		{"lazy", false, func(graphrnn.PointSet) graphrnn.Algorithm { return graphrnn.Lazy() }},
		{"lazy-EP", true, func(graphrnn.PointSet) graphrnn.Algorithm { return graphrnn.LazyEP() }},
		{"eager-M", true, func(over graphrnn.PointSet) graphrnn.Algorithm { return graphrnn.EagerM(mats[over]) }},
		{"brute-force", true, func(graphrnn.PointSet) graphrnn.Algorithm { return graphrnn.BruteForce() }},
		{"hub-label", false, func(over graphrnn.PointSet) graphrnn.Algorithm { return graphrnn.HubLabel(hubs[over]) }},
	}
	for _, s := range substrates {
		for _, kind := range nodeKinds {
			cells = append(cells, cell{s.name, kind.name, kind.query(s.algo(kind.over))})
		}
		if s.edge {
			cells = append(cells, cell{s.name, "edge-rnn", edgeRNNQuery(eps.Excluding(ep), eloc, 2, s.algo(eps))})
		}
	}
	// A knn Result carries its neighbors and no work counters, so the knn
	// row is budgeted by I/O alone; its range-NN loop is the probe every
	// expansion cell above runs under node budgets.
	cells = append(cells, cell{"expansion", "knn",
		graphrnn.Query{Kind: graphrnn.KindKNN, Target: graphrnn.NodeLocation(qnode), K: 12, Points: view}})
	answer := func(res *graphrnn.Result) []graphrnn.PointID {
		ids := res.Points
		for _, n := range res.Neighbors {
			ids = append(ids, n.P)
		}
		return ids
	}

	// Each cell runs under budgets of i/fractions of its unbounded work and
	// reads, for i = 0..fractions-1; i = 0 is a budget of one, which trips
	// at the first poll of each loop.
	const fractions = 4
	nonEmpty := map[string]int{}
	for _, c := range cells {
		full, reads, err := cold(c.q)
		if err != nil {
			t.Fatalf("%s/%s unbounded: %v", c.sub, c.kind, err)
		}
		work := full.Stats.NodesExpanded + full.Stats.NodesScanned
		var budgets []graphrnn.Budget
		for i := int64(0); i < fractions; i++ {
			if work > 1 {
				budgets = append(budgets, graphrnn.Budget{MaxNodes: max(work*i/fractions, 1)})
			}
			if reads > 1 {
				budgets = append(budgets, graphrnn.Budget{MaxIOReads: max(reads*i/fractions, 1)})
			}
		}
		ioSlack := int64(expansionIOSlack)
		if c.sub == "hub-label" {
			ioSlack = hubIOSlack
		}
		tripped := 0
		for _, b := range budgets {
			res, used, err := cold(bounded(c.q, graphrnn.QueryOptions{Budget: b}))
			if err != nil && (!errors.Is(err, graphrnn.ErrBudgetExceeded) || res == nil || res.Plan.Algorithm.String() != c.sub) {
				t.Fatalf("%s/%s %+v: result %+v, error %v; want a partial result planned on %s and ErrBudgetExceeded",
					c.sub, c.kind, b, res, err, c.sub)
			}
			// Tripped or not, a run keeps to its budget: one that finishes
			// past it has missed the polls that should have stopped it.
			if got := res.Stats.NodesExpanded + res.Stats.NodesScanned; b.MaxNodes > 0 && got > b.MaxNodes+exec.CheckStride {
				t.Errorf("%s/%s: ran to %d nodes, %d past its budget of %d", c.sub, c.kind, got, got-b.MaxNodes, b.MaxNodes)
			}
			if b.MaxIOReads > 0 && used > b.MaxIOReads+ioSlack {
				t.Errorf("%s/%s: ran to %d reads, %d past its budget of %d", c.sub, c.kind, used, used-b.MaxIOReads, b.MaxIOReads)
			}
			if err == nil {
				if !samePoints(answer(res), answer(full)) {
					t.Fatalf("%s/%s %+v finished with %v, unbounded %v", c.sub, c.kind, b, answer(res), answer(full))
				}
				continue
			}
			for _, p := range answer(res) {
				if !slices.Contains(answer(full), p) {
					t.Fatalf("%s/%s %+v: partial member %d is not in the answer %v", c.sub, c.kind, b, p, answer(full))
				}
			}
			tripped++
			nonEmpty[c.sub] += len(answer(res))
		}
		if tripped == 0 {
			t.Errorf("%s/%s: none of %d budgets tripped (%d nodes, %d reads unbounded)", c.sub, c.kind, len(budgets), work, reads)
		}
	}
	for sub, n := range nonEmpty {
		if n == 0 && sub != "hub-label" {
			t.Errorf("%s: no budgeted run returned a partial member", sub)
		}
	}

	// Maintenance repairs the lists under the operation's budget — the hub
	// index repairs after the lists commit — and an abandoned Insert or
	// Remove stops within one stride too, leaving the set as it found it.
	at := graphrnn.NodeLocation(route[0])
	victim := sites.Points()[0]
	vnode, _ := sites.NodeOf(victim)
	ops := []struct {
		name string
		run  func(*graphrnn.QueryOptions) (graphrnn.Stats, error)
	}{
		{"Insert", func(opt *graphrnn.QueryOptions) (graphrnn.Stats, error) {
			p, st, err := sites.Insert(ctx, at, opt)
			if err == nil {
				_, err = sites.Remove(ctx, p, nil)
			}
			return st, err
		}},
		{"Remove", func(opt *graphrnn.QueryOptions) (graphrnn.Stats, error) {
			st, err := sites.Remove(ctx, victim, opt)
			if err == nil {
				victim, _, err = sites.Insert(ctx, graphrnn.NodeLocation(vnode), nil)
			}
			return st, err
		}},
	}
	for _, op := range ops {
		full, err := op.run(nil)
		if err != nil {
			t.Fatalf("%s unbounded: %v", op.name, err)
		}
		work := full.NodesExpanded + full.NodesScanned
		tripped := 0
		for i := int64(0); i < fractions; i++ {
			b := max(work*i/fractions, 1)
			n := sites.Len()
			st, err := op.run(&graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: b}})
			if err != nil && !errors.Is(err, graphrnn.ErrBudgetExceeded) {
				t.Fatalf("%s with a budget of %d nodes: %v", op.name, b, err)
			}
			// The hub index's repair pops no nodes, so the count is the
			// lists' repair alone, finished or abandoned.
			if got := st.NodesExpanded + st.NodesScanned; got > b+exec.CheckStride {
				t.Errorf("%s: ran to %d nodes, %d past its budget of %d", op.name, got, got-b, b)
			}
			if err == nil {
				continue
			}
			if sites.Len() != n {
				t.Fatalf("abandoned %s left %d points, want %d", op.name, sites.Len(), n)
			}
			tripped++
		}
		if tripped == 0 {
			t.Errorf("%s: none of %d budgets tripped (%d nodes unbounded)", op.name, fractions, work)
		}
	}
}

// TestHubLabelStatsAtPublicAPI is the regression test for wrapResult
// dropping LabelReads/LabelEntries: a hub-label query through the public
// API must report nonzero label counters.
func TestHubLabelStatsAtPublicAPI(t *testing.T) {
	e := newCtxEnv(t, false)
	idx, err := e.db.BuildHubLabelIndex(e.ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	view, qnode := e.slowQuery(t)
	res, err := e.db.Run(context.Background(), rnnQuery(view, qnode, 2, graphrnn.HubLabel(idx)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LabelReads == 0 {
		t.Fatal("hub-label query reports zero LabelReads at the public API")
	}
	if res.Stats.LabelEntries == 0 {
		t.Fatal("hub-label query reports zero LabelEntries at the public API")
	}
	// The Context variant carries them too.
	res, err = e.db.Run(context.Background(), bounded(rnnQuery(view, qnode, 2, graphrnn.HubLabel(idx)), graphrnn.QueryOptions{Timeout: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LabelReads == 0 || res.Stats.LabelEntries == 0 {
		t.Fatalf("context hub-label query dropped label counters: %+v", res.Stats)
	}
}

// TestSharedBufferPool: graph pages, materialized lists and hub-label
// pages demonstrably share one pool — one stats source whose aggregate is
// the per-tenant sum — and a tenant quota is enforced.
func TestSharedBufferPool(t *testing.T) {
	g, err := graphrnn.GenerateGrid(7, 2500, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(8, 50)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 4, &graphrnn.MatOptions{BufferPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, 2, &graphrnn.HubLabelOptions{DiskBacked: true, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, qp := range ps.Points()[:10] {
		qnode, _ := ps.NodeOf(qp)
		view := ps.Excluding(qp)
		for _, algo := range []graphrnn.Algorithm{graphrnn.Eager(), graphrnn.EagerM(mat), graphrnn.HubLabel(idx)} {
			if _, err := db.Run(context.Background(), rnnQuery(view, qnode, 2, algo)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.PoolStats()
	names := map[string]graphrnn.TenantIOStats{}
	var sum graphrnn.IOStats
	for _, ten := range st.Tenants {
		names[ten.Name] = ten
		sum.Reads += ten.Reads
		sum.Hits += ten.Hits
		sum.Writes += ten.Writes
		sum.Evictions += ten.Evictions
	}
	for _, want := range []string{"graph", "mat", "hublabel"} {
		ten, ok := names[want]
		if !ok {
			t.Fatalf("tenant %q missing from pool (have %v)", want, st.Tenants)
		}
		if ten.Reads+ten.Hits == 0 {
			t.Fatalf("tenant %q saw no traffic", want)
		}
	}
	if st.IOStats != sum {
		t.Fatalf("pool aggregate %+v != tenant sum %+v", st.IOStats, sum)
	}
	// The mat tenant's quota of 2 frames is enforced under load.
	if f := names["mat"].Frames; f > 2 {
		t.Fatalf("mat tenant holds %d frames, quota 2", f)
	}
	if q := names["mat"].Quota; q != 2 {
		t.Fatalf("mat quota = %d, want 2", q)
	}
	// The tiny quotas evict, and the tenant rows count it.
	for _, want := range []string{"mat", "hublabel"} {
		if names[want].Evictions == 0 {
			t.Fatalf("tenant %q reports no evictions under a %d-frame quota: %+v", want, names[want].Quota, names[want])
		}
	}
	// A paged edge-point snapshot attaches as its own tenant and Close
	// detaches it again (no tenant leak across repeated snapshots).
	hasTenant := func(name string) bool {
		for _, ten := range db.PoolStats().Tenants {
			if ten.Name == name {
				return true
			}
		}
		return false
	}
	pep, err := db.NewEdgePoints().Paged(2)
	if err != nil {
		t.Fatal(err)
	}
	if !hasTenant("edgepoints") {
		t.Fatal("edgepoints tenant missing after Paged")
	}
	if err := pep.Close(); err != nil {
		t.Fatal(err)
	}
	if hasTenant("edgepoints") {
		t.Fatal("edgepoints tenant still attached after Close")
	}
	if err := pep.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestBatchCancellationAndWorkers covers the batch layer's engine
// semantics: reported worker counts, fail-fast, and batch-level
// cancellation marking undispatched entries instead of running them.
func TestBatchCancellationAndWorkers(t *testing.T) {
	e := newCtxEnv(t, false)
	qp := e.ps.Points()[0]
	qnode, _ := e.ps.NodeOf(qp)

	// Worker count is capped by the batch size.
	queries := []graphrnn.Query{
		rnnQuery(e.ps, qnode, 1, graphrnn.Eager()),
		rnnQuery(e.ps, qnode, 2, graphrnn.Eager()),
	}
	if _, workers := batch(e.db, queries, &graphrnn.BatchOptions{Parallelism: 8}); workers != 2 {
		t.Fatalf("workers = %d, want 2 (capped by batch size)", workers)
	}

	// Fail-fast: an invalid entry cancels everything behind it.
	ff := []graphrnn.Query{
		rnnQuery(e.ps, qnode, 1, graphrnn.Eager()),
		rnnQuery(e.ps, qnode, -1, graphrnn.Eager()), // invalid: fails
		rnnQuery(e.ps, qnode, 1, graphrnn.Eager()),
		rnnQuery(e.ps, qnode, 2, graphrnn.Eager()),
	}
	results, workers := batch(e.db, ff, &graphrnn.BatchOptions{Parallelism: 1, FailFast: true})
	if workers != 1 {
		t.Fatalf("workers = %d, want 1", workers)
	}
	if results[0].Err != nil {
		t.Fatalf("entry 0: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Fatal("invalid entry did not fail")
	}
	canceled := 0
	for _, r := range results[2:] {
		if errors.Is(r.Err, graphrnn.ErrCanceled) {
			canceled++
		}
	}
	if canceled != 2 {
		t.Fatalf("fail-fast canceled %d of 2 queued entries: %+v", canceled, results)
	}

	// A batch issued under a canceled context runs nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := e.db.RunBatch(ctx, queries, &graphrnn.BatchOptions{Parallelism: 2})
	for i, r := range rep.Results {
		if !errors.Is(r.Err, graphrnn.ErrCanceled) {
			t.Fatalf("entry %d of a canceled batch: err = %v", i, r.Err)
		}
		expiredAtStart(t, r.Result)
	}

	// An entry's own budget bounds it inside a batch.
	results, _ = batch(e.db, []graphrnn.Query{bounded(rnnQuery(e.ps, qnode, 4, graphrnn.Eager()),
		graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: 100}})}, nil)
	if !errors.Is(results[0].Err, graphrnn.ErrBudgetExceeded) {
		t.Fatalf("per-query budget: err = %v", results[0].Err)
	}
}

// TestKNNContext: the forward search honors deadlines and budgets too.
func TestKNNContext(t *testing.T) {
	e := newCtxEnv(t, false)
	_, qnode := e.slowQuery(t)
	knn := func(k int) graphrnn.Query {
		return graphrnn.Query{Kind: graphrnn.KindKNN, Target: graphrnn.NodeLocation(qnode), K: k, Points: e.ps}
	}
	if _, err := e.db.Run(context.Background(), knn(4)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res, err := e.db.Run(ctx, knn(4))
	if !errors.Is(err, graphrnn.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	expiredAtStart(t, res)
	_, err = e.db.Run(context.Background(), bounded(knn(24), graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: 64}}))
	if !errors.Is(err, graphrnn.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// TestEdgeContextVariants smoke-tests bounded edge-resident queries:
// budget errors surface and a generous bound still matches the unbounded
// answer.
func TestEdgeContextVariants(t *testing.T) {
	g, err := graphrnn.GenerateGrid(9, 2500, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomEdgePoints(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	q := graphrnn.NodeLocation(0)
	want, err := db.Run(context.Background(), edgeRNNQuery(ps, q, 2, graphrnn.Eager()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Run(context.Background(), bounded(edgeRNNQuery(ps, q, 2, graphrnn.Eager()), graphrnn.QueryOptions{Timeout: time.Minute}))
	if err != nil {
		t.Fatal(err)
	}
	if !samePoints(got.Points, want.Points) {
		t.Fatalf("bounded %v != unbounded %v", got.Points, want.Points)
	}
	res, err := db.Run(context.Background(), bounded(edgeRNNQuery(ps, q, 4, graphrnn.Lazy()), graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: 50}}))
	if !errors.Is(err, graphrnn.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil {
		t.Fatal("no partial result")
	}
}

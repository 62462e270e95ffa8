package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"graphrnn"
)

// engine is the in-process twin of one workload's server: a DB opened with
// the same options and carrying the same substrates, so the traced run can
// time the library layers a request passes through with HTTP, JSON and the
// server lock taken away.
type engine struct {
	w     *workload
	db    *graphrnn.DB
	ps    *graphrnn.NodePoints
	sites *graphrnn.NodePoints
	mat   *graphrnn.Materialization
	hub   *graphrnn.HubLabelIndex
	// Sharded workloads: shards holds the per-shard engines; coord is a
	// pure coordinator whose ShardRunner wraps every sub-query in a span
	// and delegates to shards.RunShard.
	shards *graphrnn.Sharded
	coord  *graphrnn.Sharded
	runner *spanRunner
	// ctx is cancellable, like every HTTP request's context: queries then
	// run with a live exec.Ctx and pay its polls, as they do in the server.
	ctx    context.Context
	cancel context.CancelFunc
}

// serverBuild is how cmd/rnnserver builds hub labels by default: all cores.
var serverBuild = graphrnn.BuildOptions{Workers: -1}

func openEngine(w *workload, d *dataset) (*engine, error) {
	e := &engine{w: w}
	e.ctx, e.cancel = context.WithCancel(context.Background())
	var opt *graphrnn.Options
	if w.disk {
		opt = &graphrnn.Options{DiskBacked: true, BufferPages: w.buffer}
	}
	var err error
	if e.db, err = graphrnn.Open(d.g, opt); err != nil {
		return nil, err
	}
	if e.ps, e.sites, err = placePoints(e.db, d.seed, d.density); err != nil {
		return nil, e.closeAfter(err)
	}
	if w.shards > 0 {
		shOpt := graphrnn.ShardOptions{
			Shards: w.shards, Seed: d.seed, Sites: e.sites,
			HubLabelK: w.hubK, MatK: w.maxK,
			DiskBacked: w.disk, BufferPages: w.buffer,
			Build: serverBuild,
		}
		if e.shards, err = e.db.Shard(e.ps, &shOpt); err != nil {
			return nil, e.closeAfter(err)
		}
		e.runner = &spanRunner{engine: e.shards}
		for sh := range w.shards {
			e.runner.names = append(e.runner.names, fmt.Sprintf("sharded.RunShard[%d]", sh))
		}
		shOpt.Runner = e.runner
		if e.coord, err = e.db.Shard(e.ps, &shOpt); err != nil {
			return nil, e.closeAfter(err)
		}
		return e, nil
	}
	if w.maxK > 0 {
		if e.mat, err = e.db.MaterializeNodePoints(e.ps, w.maxK, nil); err != nil {
			return nil, e.closeAfter(err)
		}
	}
	if w.hubK > 0 {
		e.hub, err = e.db.BuildHubLabelIndex(e.ps, w.hubK, &graphrnn.HubLabelOptions{Build: serverBuild})
		if err != nil {
			return nil, e.closeAfter(err)
		}
	}
	return e, nil
}

// closeAfter releases the engine on a failed open and passes err through.
func (e *engine) closeAfter(err error) error {
	_ = e.close() // err is the failure worth reporting
	return err
}

// close releases the substrates in dependency order and returns the first
// error.
func (e *engine) close() error {
	e.cancel()
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	if e.coord != nil {
		keep(e.coord.Close())
	}
	if e.shards != nil {
		keep(e.shards.Close())
	}
	if e.hub != nil {
		keep(e.hub.Close())
	}
	if e.mat != nil {
		keep(e.mat.Close())
	}
	keep(e.db.Close())
	return first
}

// replay runs reqs through the engine on the calling goroutine (batch
// requests fan out over batchWorkers goroutines), recording
// spans on tr when it is non-nil; request ids count from first. It
// returns, per request, the time the engine-side work took — DB.Run for a
// single query, the whole batch for a batch request — and the wall time of
// the pass.
func (e *engine) replay(tr *tracer, reqs []request, first int) (engineTime []time.Duration, wall time.Duration, err error) {
	if e.runner != nil {
		e.runner.tr = tr
	}
	engineTime = make([]time.Duration, len(reqs))
	start := time.Now()
	for i := range reqs {
		id := first + i
		root := tr.begin("request", -1, id)
		if e.w.batch == 1 {
			engineTime[i], err = e.replayOne(tr, root, id, reqs[i].queries[0])
		} else {
			engineTime[i], err = e.replayBatch(tr, root, id, reqs[i].queries)
		}
		tr.end(root)
		if err != nil {
			return nil, 0, fmt.Errorf("replaying request %d: %w", id, err)
		}
	}
	return engineTime, time.Since(start), nil
}

// replayOne is request -> graphrnn.Plan -> graphrnn.Run. Run plans again
// on its own, as it does under the server; the separate Plan call exists to
// time the planner alone.
func (e *engine) replayOne(tr *tracer, root, req int, wq query) (time.Duration, error) {
	q, err := toQuery(wq, e.ps, e.sites)
	if err != nil {
		return 0, err
	}
	id := tr.begin("graphrnn.Plan", root, req)
	_, err = e.db.Plan(q)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	id = tr.begin("graphrnn.Run", root, req)
	start := time.Now()
	_, err = e.db.Run(e.ctx, q)
	took := time.Since(start)
	tr.end(id)
	return took, err
}

// batchWorkers mirrors the ?parallelism=2 of the batch requests, capped at
// GOMAXPROCS: goroutines that time-share one P would count each other's
// run time in their spans.
func batchWorkers() int { return min(2, runtime.GOMAXPROCS(0)) }

// replayBatch is request -> sharded.Run (one per query, over the workers)
// -> sharded.RunShard[i] (recorded by the spanRunner).
func (e *engine) replayBatch(tr *tracer, root, req int, wqs []query) (time.Duration, error) {
	queries := make([]graphrnn.Query, len(wqs))
	for i, wq := range wqs {
		q, err := toQuery(wq, nil, nil)
		if err != nil {
			return 0, err
		}
		queries[i] = q
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, batchWorkers())
	start := time.Now()
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				id := tr.begin("sharded.Run", root, req)
				ctx := e.ctx
				if tr != nil {
					ctx = context.WithValue(ctx, spanKey{}, spanRef{id: id, request: req})
				}
				_, err := e.coord.Run(ctx, queries[i])
				tr.end(id)
				if err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	took := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return took, nil
}

// spanKey carries the enclosing sharded.Run span to the ShardRunner, which
// the coordinator calls with the caller's context.
type spanKey struct{}

type spanRef struct{ id, request int }

// spanRunner is the ShardRunner of the traced coordinator: it records one
// span per shard sub-query and runs it on the engine-holding Sharded.
type spanRunner struct {
	engine *graphrnn.Sharded
	names  []string // sharded.RunShard[i], built once so a span costs no formatting
	tr     *tracer  // set between passes, never while queries run
}

func (r *spanRunner) RunShard(ctx context.Context, shard int, q graphrnn.Query) (*graphrnn.ShardResult, error) {
	if r.tr == nil {
		return r.engine.RunShard(ctx, shard, q)
	}
	ref, _ := ctx.Value(spanKey{}).(spanRef) // the zero ref would only misparent a span
	id := r.tr.begin(r.names[shard], ref.id, ref.request)
	defer r.tr.end(id)
	return r.engine.RunShard(ctx, shard, q)
}

// replayChunks is how many off/on pairs the traced replay is cut into.
const replayChunks = 10

// tracedRun replays the head of the workload's first round in-process,
// with spans off and on, and returns the replay's per-layer metrics.
// httpLat holds the HTTP latencies (ms) the same requests saw in the timed
// round, which the in-process time is subtracted from.
func tracedRun(w *workload, d *dataset, reqs []request, httpLat []float64, traceOut string) (map[string]float64, error) {
	e, err := openEngine(w, d)
	if err != nil {
		return nil, fmt.Errorf("opening the in-process engine: %w", err)
	}
	reqs = reqs[:min(w.replay, len(reqs))]
	// A short untraced pass first, so no measured pass pays for cold
	// caches and lazily grown scratch.
	if _, _, err := e.replay(nil, reqs[:max(len(reqs)/4, 1)], 0); err != nil {
		return nil, e.closeAfter(err)
	}
	// Every chunk of requests runs twice back to back, spans off and spans
	// on, in alternating order, so that a slow stretch of the machine hits
	// both sides of the overhead comparison alike.
	tr := newTracer()
	var engineTime []time.Duration
	var wallOff, wallOn time.Duration
	chunk := max(len(reqs)/replayChunks, 1)
	for first, n := 0, 0; first < len(reqs); first, n = first+chunk, n+1 {
		part := reqs[first:min(first+chunk, len(reqs))]
		for pass := range 2 {
			var on *tracer
			if pass == n%2 {
				on = tr
			}
			times, wall, err := e.replay(on, part, first)
			if err != nil {
				return nil, e.closeAfter(err)
			}
			if on == nil {
				wallOff += wall
				continue
			}
			wallOn += wall
			engineTime = append(engineTime, times...)
		}
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	if traceOut != "" {
		if err := tr.writeTo(traceOut); err != nil {
			return nil, fmt.Errorf("writing the spans: %w", err)
		}
	}

	m := map[string]float64{}
	cover := childCover(tr.spans)
	times := make([]float64, len(engineTime))
	for i, t := range engineTime {
		times[i] = us(t)
	}
	// The same requests, paired: what the HTTP round added to each one's
	// engine time. On a mixed workload the difference of two medians would
	// compare different requests.
	var httpTimes, added []float64
	for i, l := range httpLat[:min(len(times), len(httpLat))] {
		if l > 0 {
			httpTimes = append(httpTimes, l*1000)
			added = append(added, l*1000-times[i])
		}
	}
	m["graphrnn.run_us_p50"] = median(times)
	m["graphrnn.plan_us_p50"] = spanP50(tr.spans, cover, "graphrnn.Plan", spanDur)
	m["rnnserver.overhead_us_p50"] = median(added)
	m["rnnserver.overhead_share"] = ratio(median(added), median(httpTimes))
	m["sharded.run_us_p50"] = spanP50(tr.spans, cover, "sharded.Run", spanDur)
	m["sharded.fanout_us_p50"] = spanP50(tr.spans, cover, "sharded.Run", spanCover)
	m["sharded.coordinator_self_us_p50"] = spanP50(tr.spans, cover, "sharded.Run", spanSelf)
	m["trace.overhead_pct"] = 100 * ratio(float64(wallOn-wallOff), float64(wallOff))
	return m, nil
}

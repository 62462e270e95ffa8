package graphrnn_test

// One benchmark per table and figure of the paper's evaluation (Section 6),
// each delegating to the experiment harness that rebuilds the workload and
// prints the same series as the paper. Run a single regeneration with e.g.
//
//	go test -bench BenchmarkFig17 -benchtime 1x -v
//
// The harness defaults to reduced ("laptop") scales; cmd/experiments -full
// runs the paper-scale configurations. Micro-benchmarks for individual
// query algorithms and maintenance operations follow at the bottom.

import (
	"context"
	"testing"
	"time"

	"graphrnn"
	"graphrnn/internal/exp"
)

// benchScale keeps bench iterations quick while exercising the identical
// code path as cmd/experiments.
func benchScale() exp.Scale { return exp.Scale{Queries: 5, Seed: 2006} }

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := exp.Find(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	var tab *exp.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = e.Run(benchScale())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Report the paper's cost metric for the first and last setting of
	// the first algorithm column, so regressions in the *shape* show up
	// in benchmark diffs.
	first := tab.Cells[0][0]
	last := tab.Cells[len(tab.Cells)-1][0]
	b.ReportMetric(first.Total(), "cost_first_s")
	b.ReportMetric(last.Total(), "cost_last_s")
	if testing.Verbose() {
		b.Logf("\n%s", tab.Format())
	}
}

// Table 1: ad-hoc predicate queries on the DBLP-like coauthorship graph.
func BenchmarkTable1AdHocDBLP(b *testing.B) { benchExperiment(b, "table1") }

// Table 2: cost vs density on the DBLP-like graph.
func BenchmarkTable2DensityDBLP(b *testing.B) { benchExperiment(b, "table2") }

// Fig 15: cost vs |V| on BRITE-like topologies (exponential expansion).
func BenchmarkFig15BriteScaling(b *testing.B) { benchExperiment(b, "fig15") }

// Fig 16: cost vs density on a fixed BRITE-like topology.
func BenchmarkFig16BriteDensity(b *testing.B) { benchExperiment(b, "fig16") }

// Fig 17: cost vs density on the SF-like unrestricted network.
func BenchmarkFig17SFDensity(b *testing.B) { benchExperiment(b, "fig17") }

// Fig 18: cost vs k on the SF-like network.
func BenchmarkFig18SFVaryK(b *testing.B) { benchExperiment(b, "fig18") }

// Fig 19: continuous queries vs route size.
func BenchmarkFig19Continuous(b *testing.B) { benchExperiment(b, "fig19") }

// Fig 20a: grid maps, cost vs |V|.
func BenchmarkFig20aGridScaling(b *testing.B) { benchExperiment(b, "fig20a") }

// Fig 20b: grid maps, cost vs average degree.
func BenchmarkFig20bGridDegree(b *testing.B) { benchExperiment(b, "fig20b") }

// Fig 21: cost vs LRU buffer capacity.
func BenchmarkFig21BufferSize(b *testing.B) { benchExperiment(b, "fig21") }

// Fig 22a: materialization update cost vs density.
func BenchmarkFig22aUpdateDensity(b *testing.B) { benchExperiment(b, "fig22a") }

// Fig 22b: materialization update cost vs K.
func BenchmarkFig22bUpdateK(b *testing.B) { benchExperiment(b, "fig22b") }

// --- Micro-benchmarks -----------------------------------------------------

type microEnv struct {
	db      *graphrnn.DB
	ps      *graphrnn.NodePoints
	mat     *graphrnn.Materialization
	queries []graphrnn.PointID
}

// newMicroEnv opens the road-20K workload disk-backed, behind a buffer of
// bufferPages pages (0: Options' default, which holds the whole graph).
func newMicroEnv(tb testing.TB, bufferPages int) *microEnv {
	tb.Helper()
	g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
	if err != nil {
		tb.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: bufferPages})
	if err != nil {
		tb.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
	if err != nil {
		tb.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 4, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return &microEnv{db: db, ps: ps, mat: mat, queries: ps.Points()}
}

func benchQueries(b *testing.B, bufferPages int, algo func(*microEnv) graphrnn.Algorithm) {
	e := newMicroEnv(b, bufferPages)
	a := algo(e)
	e.db.BufferPool().ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qp := e.queries[i%len(e.queries)]
		qnode, _ := e.ps.NodeOf(qp)
		if _, err := e.db.Run(context.Background(), rnnQuery(e.ps.Excluding(qp), qnode, 2, a)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(e.db.PoolStats().Reads)/float64(b.N), "io_reads/op")
}

// R2NN query latency per algorithm on a 20K-node road network, D=0.01.
func BenchmarkQueryEager(b *testing.B) {
	benchQueries(b, 0, func(*microEnv) graphrnn.Algorithm { return graphrnn.Eager() })
}

// BenchmarkQueryEagerCold is BenchmarkQueryEager behind a 32-page buffer,
// the shape of the benchmark's expand_cold server. The default buffer holds
// the whole graph (≈ 1 page read a query); this one is 7× smaller, so the
// range-NN probes fault their pages in through the pool.
func BenchmarkQueryEagerCold(b *testing.B) {
	benchQueries(b, 32, func(*microEnv) graphrnn.Algorithm { return graphrnn.Eager() })
}

func BenchmarkQueryLazy(b *testing.B) {
	benchQueries(b, 0, func(*microEnv) graphrnn.Algorithm { return graphrnn.Lazy() })
}

func BenchmarkQueryLazyEP(b *testing.B) {
	benchQueries(b, 0, func(*microEnv) graphrnn.Algorithm { return graphrnn.LazyEP() })
}

func BenchmarkQueryEagerM(b *testing.B) {
	benchQueries(b, 0, func(e *microEnv) graphrnn.Algorithm { return graphrnn.EagerM(e.mat) })
}

// R2NN query latency through the hub-label substrate on the identical
// workload as the expansion benchmarks above (labels persisted into a
// paged file and served through their own LRU buffer, so io_reads/op
// reports label faults the way the other substrates report page faults).
func BenchmarkQueryHubLabel(b *testing.B) {
	e := newMicroEnv(b, 0)
	idx, err := e.db.BuildHubLabelIndex(e.ps, 4, &graphrnn.HubLabelOptions{DiskBacked: true, BufferPages: 64})
	if err != nil {
		b.Fatal(err)
	}
	a := graphrnn.HubLabel(idx)
	e.db.BufferPool().ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qp := e.queries[i%len(e.queries)]
		qnode, _ := e.ps.NodeOf(qp)
		if _, err := e.db.Run(context.Background(), rnnQuery(e.ps.Excluding(qp), qnode, 2, a)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(tenantIO(e.db, "hublabel").Reads)/float64(b.N), "io_reads/op")
}

// BenchmarkCIQueries measures the substrates on one workload: the full
// fixed-seed query set — every data point of the 20K-node road network
// queried once at k=2 — as ONE benchmark op per algorithm, so
// -benchtime=1x yields a stable average instead of a noisy single-query
// sample; ns/op ÷ queries/op is the per-query time README quotes. Queries
// flow through the unified Run surface (the per-query planning cost is
// part of what it measures); the algorithms are named explicitly so the
// series keeps measuring the substrates, not the planner's preference. Its
// counters are held exactly elsewhere: page transfers and label entries by
// the hub rows of repro.golden, allocations by TestHotPathAllocs, the
// pruned label scan by hublabel.TestReachPrunesPhaseOne.
func BenchmarkCIQueries(b *testing.B) {
	e := newMicroEnv(b, 0)
	hubIdx, err := e.db.BuildHubLabelIndex(e.ps, 4, &graphrnn.HubLabelOptions{DiskBacked: true, BufferPages: 64})
	if err != nil {
		b.Fatal(err)
	}
	algos := []struct {
		name string
		algo graphrnn.Algorithm
	}{
		{"eager", graphrnn.Eager()},
		{"lazy", graphrnn.Lazy()},
		{"lazy-ep", graphrnn.LazyEP()},
		{"eager-m", graphrnn.EagerM(e.mat)},
		{"hub-label", graphrnn.HubLabel(hubIdx)},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			// Every sweep starts cold, so its I/O counters do not depend on
			// which repeat of -count this is.
			if err := e.db.DropCache(); err != nil {
				b.Fatal(err)
			}
			e.db.BufferPool().ResetStats()
			// The expansion hot path (heap, page reads) allocates
			// nothing, so a sweep costs a few dozen allocations per query.
			b.ReportAllocs()
			var labelEntries int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, qp := range e.queries {
					qnode, _ := e.ps.NodeOf(qp)
					q := graphrnn.Query{
						Kind:      graphrnn.KindRNN,
						Target:    graphrnn.NodeLocation(qnode),
						K:         2,
						Points:    e.ps.Excluding(qp),
						Algorithm: a.algo,
					}
					res, err := e.db.Run(context.Background(), q)
					if err != nil {
						b.Fatal(err)
					}
					labelEntries += res.Stats.LabelEntries
				}
			}
			b.StopTimer()
			// The hub-label sweep's exact work counter: answers cannot tell
			// an index whose reach bounds all drifted to +Inf from a pruned
			// one, the entries it scans can.
			if labelEntries > 0 {
				b.ReportMetric(float64(labelEntries)/float64(b.N), "label_entries/op")
			}
			// All substrates fault through one shared pool: its reads are
			// the sweep's page faults, and its hit rate the unified
			// cache-effectiveness number.
			pool := e.db.PoolStats()
			b.ReportMetric(float64(pool.Reads)/float64(b.N), "io_reads/op")
			b.ReportMetric(float64(len(e.queries)), "queries/op")
			b.ReportMetric(pool.HitRate(), "pool_hit_rate")
		})
	}
}

// BenchmarkCIShardedQueries measures scatter-gather serving on the
// workload of BenchmarkCIQueries — every placed point of the 20K-node road
// network queried once at k=2 — through a 4-shard Sharded with no hub index
// and the default 1-hop halo: the class sharding exists for, where every
// shard answers by expansion inside its region's points and the coordinator
// verifies the merged candidates by expansion over the full set. (With
// HubLabelK the coordinator's index would answer every query of this sweep
// itself and all the counters below would read 0.) One op = one full
// sweep, so -benchtime=1x is stable; the fan-out, candidate, verification
// and member counts per op are deterministic for the fixed seed, and the
// shard rows of repro.golden hold the same counters exactly on a smaller
// sample. nodes_scanned/op is the queries' scanned-node total, shards and
// verify pass together.
func BenchmarkCIShardedQueries(b *testing.B) {
	g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
	if err != nil {
		b.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
	if err != nil {
		b.Fatal(err)
	}
	sh, err := db.Shard(ps, &graphrnn.ShardOptions{Shards: 4, Seed: 2006})
	if err != nil {
		b.Fatal(err)
	}
	defer sh.Close()
	queries := ps.Points()
	before := sh.Stats()
	var scanned int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, qp := range queries {
			qnode, _ := ps.NodeOf(qp)
			q := graphrnn.Query{
				Kind:   graphrnn.KindRNN,
				Target: graphrnn.NodeLocation(qnode),
				K:      2,
			}
			res, err := sh.Run(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			scanned += res.Stats.NodesScanned
		}
	}
	b.StopTimer()
	after := sh.Stats()
	n := float64(b.N)
	b.ReportMetric(float64(after.Queries-before.Queries)/n, "queries/op")
	b.ReportMetric(float64(after.FanOuts-before.FanOuts)/n, "fanout/op")
	b.ReportMetric(float64(after.Candidates-before.Candidates)/n, "candidates/op")
	b.ReportMetric(float64(after.VerifyRuns-before.VerifyRuns)/n, "verify_runs/op")
	b.ReportMetric(float64(scanned)/n, "nodes_scanned/op")
	b.ReportMetric(float64(after.Members-before.Members)/n, "members/op")
}

// BenchmarkBudgetedQueries measures the engine layer's overhead and
// payoff: the tracked eager workload under a per-query node budget (and a
// generous deadline), reporting how much of the unbounded work budgeted
// queries still perform. The unlimited sub-benchmark is the context-path
// overhead probe: identical work to BenchmarkCIQueries/eager, plus the
// per-step exec checks.
func BenchmarkBudgetedQueries(b *testing.B) {
	e := newMicroEnv(b, 0)
	for _, bench := range []struct {
		name   string
		budget int64
	}{
		{"unlimited", 0},
		{"budget50k", 50000},
		{"budget5k", 5000},
	} {
		b.Run(bench.name, func(b *testing.B) {
			opt := graphrnn.QueryOptions{
				Timeout: time.Minute,
				Budget:  graphrnn.Budget{MaxNodes: bench.budget},
			}
			var work, members int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, qp := range e.queries {
					qnode, _ := e.ps.NodeOf(qp)
					res, err := e.db.Run(context.Background(), bounded(rnnQuery(e.ps.Excluding(qp), qnode, 2, graphrnn.Eager()), opt))
					if err != nil && !graphrnn.IsExecErr(err) {
						b.Fatal(err)
					}
					if res != nil {
						work += res.Stats.NodesExpanded + res.Stats.NodesScanned
						members += int64(len(res.Points))
					}
				}
			}
			b.StopTimer()
			ops := float64(b.N) * float64(len(e.queries))
			b.ReportMetric(float64(work)/ops, "nodes/query")
			b.ReportMetric(float64(members)/ops, "members/query")
		})
	}
}

// One-off cost of the hub-label substrate: pruned-landmark labeling plus
// reverse-index build on the 20K-node road network. Beside ns/op it reports
// the counters a faster build must leave alone: visits/op and pruned/op of
// the landmark sweeps and label_entries/op (1 275 703 / 95 504 / 1 180 199,
// sequential). Two memory counters, read after collections outside the
// timer: label_bytes/op, the labels' packed entries plus offsets
// (9 518 872 at 8 bytes an entry; 14 239 668 at 12 before the packing), and
// heap_bytes/op, the Go heap the built index retains —
// 0.82 M (offsets and reverse index) with the labels mapped outside the
// heap, 18.1 M when they sat on it (before the quantum grid).
func BenchmarkHubLabelBuild(b *testing.B) {
	g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
	if err != nil {
		b.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := liveHeap()
		b.StartTimer()
		idx, err := db.BuildHubLabelIndex(ps, 4, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if idx.LabelEntries() == 0 {
			b.Fatal("empty labeling")
		}
		bst := idx.BuildStats()
		b.ReportMetric(float64(bst.Visits), "visits/op")
		b.ReportMetric(float64(bst.Pruned), "pruned/op")
		b.ReportMetric(float64(idx.LabelEntries()), "label_entries/op")
		b.ReportMetric(float64(liveHeap()-before), "heap_bytes/op")
		b.ReportMetric(float64(bst.LabelBytes), "label_bytes/op")
		if err := idx.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkHubLabelBuild100K is the nightly build smoke: a 100K-node road
// network through the parallel build. Not part of the per-PR
// gate (≈ 10 s on one core and 16 390 356 label entries, not milliseconds); the nightly
// workflow runs it at -benchtime=1x to catch scaling regressions and
// allocator blowups that a 20K graph hides.
func BenchmarkHubLabelBuild100K(b *testing.B) {
	g, err := graphrnn.GenerateRoadNetwork(2016, 100000)
	if err != nil {
		b.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(2017, g.NumNodes()/100)
	if err != nil {
		b.Fatal(err)
	}
	opt := &graphrnn.HubLabelOptions{Build: graphrnn.BuildOptions{Workers: -1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := db.BuildHubLabelIndex(ps, 4, opt)
		if err != nil {
			b.Fatal(err)
		}
		if idx.LabelEntries() == 0 {
			b.Fatal("empty labeling")
		}
		b.ReportMetric(float64(idx.LabelEntries()), "label_entries/op")
	}
}

// Parallel variants: identical workload fanned out over GOMAXPROCS
// goroutines with b.RunParallel, tracking throughput scaling of the
// concurrent query path. Memory-backed so the numbers isolate CPU-side
// contention (scratch pool, stats) from buffer-manager locking.
func benchQueriesParallel(b *testing.B, k int, algo graphrnn.Algorithm) {
	g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
	if err != nil {
		b.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
	if err != nil {
		b.Fatal(err)
	}
	queries := ps.Points()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			qp := queries[i%len(queries)]
			i++
			qnode, _ := ps.NodeOf(qp)
			if _, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, k, algo)); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkQueryParallelEagerK1(b *testing.B) { benchQueriesParallel(b, 1, graphrnn.Eager()) }
func BenchmarkQueryParallelEagerK4(b *testing.B) { benchQueriesParallel(b, 4, graphrnn.Eager()) }
func BenchmarkQueryParallelLazyK1(b *testing.B)  { benchQueriesParallel(b, 1, graphrnn.Lazy()) }
func BenchmarkQueryParallelLazyK4(b *testing.B)  { benchQueriesParallel(b, 4, graphrnn.Lazy()) }

// Batch fan-out against single-goroutine serial execution of the same
// query slice: the acceptance benchmark for >1 query in flight.
func BenchmarkRNNBatch(b *testing.B) {
	g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
	if err != nil {
		b.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		b.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
	if err != nil {
		b.Fatal(err)
	}
	var queries []graphrnn.Query
	for _, qp := range ps.Points()[:64] {
		qnode, _ := ps.NodeOf(qp)
		queries = append(queries, rnnQuery(ps, qnode, 2, graphrnn.Eager()))
	}
	for _, par := range []int{1, 4, 0} {
		name := "serial"
		switch par {
		case 4:
			name = "parallel4"
		case 0:
			name = "gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			opt := &graphrnn.BatchOptions{Parallelism: par}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep := db.RunBatch(context.Background(), queries, opt)
				for _, r := range rep.Results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// All-NN materialization build (Fig 8) on a 20K-node road network with 200
// points and K = 4: over a memory DB, and over a disk DB shaped like the
// expand_cold server's (a 32-page graph buffer). The build reads the
// in-memory graph either way, so graph_reads/op is 0 on both.
func BenchmarkMaterializeBuild(b *testing.B) {
	g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opt  *graphrnn.Options
	}{
		{"memory", nil},
		{"disk", &graphrnn.Options{DiskBacked: true, BufferPages: 32}},
	} {
		b.Run(c.name, func(b *testing.B) {
			db, err := graphrnn.Open(g, c.opt)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
			if err != nil {
				b.Fatal(err)
			}
			db.BufferPool().ResetStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat, err := db.MaterializeNodePoints(ps, 4, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := mat.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(tenantIO(db, "graph").Reads)/float64(b.N), "graph_reads/op")
		})
	}
}

// Ablation: the connectivity-clustering page layout (BFS order, the
// paper's Chan & Zhang-style grouping) against a random layout, measured
// as buffer faults of an identical eager workload. An expansion reads a
// node's neighbours next, and the BFS order packs neighbours into the same
// pages, so the BFS layout should fault substantially less.
func BenchmarkLayoutAblation(b *testing.B) {
	for _, layout := range []string{"bfs", "random"} {
		b.Run(layout, func(b *testing.B) {
			g, err := graphrnn.GenerateRoadNetwork(2006, 20000)
			if err != nil {
				b.Fatal(err)
			}
			var db *graphrnn.DB
			if layout == "bfs" {
				db, err = graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 16})
			} else {
				db, err = graphrnn.OpenWithLayout(g, &graphrnn.Options{DiskBacked: true, BufferPages: 16}, graphrnn.RandomLayout(7))
			}
			if err != nil {
				b.Fatal(err)
			}
			ps, err := db.PlaceRandomNodePoints(2007, g.NumNodes()/100)
			if err != nil {
				b.Fatal(err)
			}
			queries := ps.Points()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				qp := queries[i%len(queries)]
				qnode, _ := ps.NodeOf(qp)
				if _, err := db.Run(context.Background(), rnnQuery(ps.Excluding(qp), qnode, 1, graphrnn.Eager())); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tenantIO(db, "graph").Reads)/float64(b.N), "faults/query")
		})
	}
}

// BenchmarkCIMaintenance measures insert+delete round trips (Figs 10-11
// plus the lists' before-images) on the in-memory lists. One op = 64 round
// trips over a fixed free-node cycle, so -benchtime=1x averages out
// scheduler noise the way BenchmarkCIQueries does. list_reads/op and
// list_writes/op are deterministic for the fixed seed: TestListPageIO pins
// one op exactly.
func BenchmarkCIMaintenance(b *testing.B) {
	e := newMicroEnv(b, 0)
	ps, free := maintenanceSet(b, e)
	e.db.BufferPool().ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrips(b, ps, free)
	}
	b.StopTimer()
	io := tenantIO(e.db, "mat")
	b.ReportMetric(float64(io.Reads+io.Hits)/float64(b.N), "list_reads/op")
	b.ReportMetric(float64(io.Writes)/float64(b.N), "list_writes/op")
	b.ReportMetric(float64(len(free)*2), "maintenance_ops/op")
}

// TestListPageIO pins one op of BenchmarkCIMaintenance exactly: the list
// pages 64 round trips read through the pool. The lists' 64-frame quota
// holds every list page, so the round trips write none back; reads are the
// one count to pin.
func TestListPageIO(t *testing.T) {
	e := newMicroEnv(t, 0)
	ps, free := maintenanceSet(t, e)
	e.db.BufferPool().ResetStats()
	roundTrips(t, ps, free)
	io := tenantIO(e.db, "mat")
	if reads := io.Reads + io.Hits; reads != 469619 {
		t.Fatalf("64 round trips read %d list pages, want 469619", reads)
	}
}

// maintenanceSet returns the point set the maintenance workload mutates and
// the first 64 free nodes one op cycles through.
func maintenanceSet(tb testing.TB, e *microEnv) (*graphrnn.NodePoints, []graphrnn.NodeID) {
	tb.Helper()
	g := e.db.Graph()
	var free []graphrnn.NodeID
	for n := 0; n < g.NumNodes() && len(free) < 64; n++ {
		if _, taken := e.ps.PointAt(graphrnn.NodeID(n)); !taken {
			free = append(free, graphrnn.NodeID(n))
		}
	}
	return e.ps, free
}

// roundTrips places a point on every node of free and deletes it again.
func roundTrips(tb testing.TB, ps *graphrnn.NodePoints, free []graphrnn.NodeID) {
	tb.Helper()
	for _, n := range free {
		p, err := ps.Place(n)
		if err != nil {
			tb.Fatal(err)
		}
		if err := ps.Delete(p); err != nil {
			tb.Fatal(err)
		}
	}
}

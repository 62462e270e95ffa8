package graphrnn_test

// Concurrency coverage for the thread-safe query path: parallel
// monochromatic, edge-resident and bichromatic queries, on memory- and
// disk-backed DBs, across all five algorithms, each checked against the
// serial brute-force answer. Run with -race to exercise the scratch-pool
// and buffer-pool locking.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"graphrnn"
)

func samePoints(got, want []graphrnn.PointID) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// The strict single-algorithm queries most tests issue: the named algorithm
// runs or errors, never a planner fallback.

func rnnQuery(ps graphrnn.PointSet, q graphrnn.NodeID, k int, algo graphrnn.Algorithm) graphrnn.Query {
	return edgeRNNQuery(ps, graphrnn.NodeLocation(q), k, algo)
}

func edgeRNNQuery(ps graphrnn.PointSet, q graphrnn.Location, k int, algo graphrnn.Algorithm) graphrnn.Query {
	return graphrnn.Query{Kind: graphrnn.KindRNN, Target: q, K: k, Points: ps, Algorithm: algo, Strict: true}
}

func biQuery(cands, sites graphrnn.PointSet, q graphrnn.NodeID, k int, algo graphrnn.Algorithm) graphrnn.Query {
	return graphrnn.Query{Kind: graphrnn.KindBichromatic, Target: graphrnn.NodeLocation(q), K: k,
		Points: cands, Sites: sites, Algorithm: algo, Strict: true}
}

func routeQuery(ps graphrnn.PointSet, route []graphrnn.NodeID, k int, algo graphrnn.Algorithm) graphrnn.Query {
	return graphrnn.Query{Kind: graphrnn.KindContinuous, Route: route, K: k, Points: ps, Algorithm: algo, Strict: true}
}

// batch runs queries through RunBatch under a background context and
// returns the per-query results and the worker count.
func batch(db *graphrnn.DB, queries []graphrnn.Query, opt *graphrnn.BatchOptions) ([]graphrnn.BatchResult, int) {
	rep := db.RunBatch(context.Background(), queries, opt)
	return rep.Results, rep.Workers
}

// bounded returns q under opt.
func bounded(q graphrnn.Query, opt graphrnn.QueryOptions) graphrnn.Query {
	q.QueryOptions = opt
	return q
}

type concEnv struct {
	db      *graphrnn.DB
	ps      *graphrnn.NodePoints
	mat     *graphrnn.Materialization
	queries []graphrnn.PointID
}

func newConcEnv(t *testing.T, diskBacked bool) *concEnv {
	t.Helper()
	g, err := graphrnn.GenerateGrid(31, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	var opt *graphrnn.Options
	if diskBacked {
		// A tiny buffer keeps eviction churning under concurrent faults.
		opt = &graphrnn.Options{DiskBacked: true, BufferPages: 8}
	}
	db, err := graphrnn.Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(32, 40)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &concEnv{db: db, ps: ps, mat: mat, queries: ps.Points()[:12]}
}

func concAlgorithms(e *concEnv) map[string]graphrnn.Algorithm {
	return map[string]graphrnn.Algorithm{
		"eager":   graphrnn.Eager(),
		"lazy":    graphrnn.Lazy(),
		"lazy-ep": graphrnn.LazyEP(),
		"eager-m": graphrnn.EagerM(e.mat),
		"brute":   graphrnn.BruteForce(),
	}
}

// TestConcurrentRNN runs every algorithm from many goroutines at once and
// checks each answer against the serial brute-force oracle computed up
// front.
func TestConcurrentRNN(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			e := newConcEnv(t, backend == "disk")
			// Serial oracle per (query, k).
			type key struct {
				q graphrnn.PointID
				k int
			}
			want := make(map[key][]graphrnn.PointID)
			ks := []int{1, 2, 4}
			for _, qp := range e.queries {
				qnode, _ := e.ps.NodeOf(qp)
				view := e.ps.Excluding(qp)
				for _, k := range ks {
					res, err := e.db.Run(context.Background(), rnnQuery(view, qnode, k, graphrnn.BruteForce()))
					if err != nil {
						t.Fatal(err)
					}
					want[key{qp, k}] = res.Points
				}
			}
			var wg sync.WaitGroup
			errc := make(chan error, len(e.queries)*len(ks)*5)
			for name, algo := range concAlgorithms(e) {
				for _, qp := range e.queries {
					for _, k := range ks {
						wg.Add(1)
						go func(name string, algo graphrnn.Algorithm, qp graphrnn.PointID, k int) {
							defer wg.Done()
							qnode, _ := e.ps.NodeOf(qp)
							res, err := e.db.Run(context.Background(), rnnQuery(e.ps.Excluding(qp), qnode, k, algo))
							if err != nil {
								errc <- fmt.Errorf("%s q=%d k=%d: %w", name, qp, k, err)
								return
							}
							if !samePoints(res.Points, want[key{qp, k}]) {
								errc <- fmt.Errorf("%s q=%d k=%d: got %v, want %v",
									name, qp, k, res.Points, want[key{qp, k}])
							}
						}(name, algo, qp, k)
					}
				}
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			// The pool's counters must remain readable during queries
			// (TestConcurrentIOStats) and coherent afterwards.
			if backend == "disk" && tenantIO(e.db, "graph").Reads == 0 {
				t.Fatal("disk-backed DB recorded no page reads")
			}
		})
	}
}

// TestConcurrentEdgeRNN exercises the unrestricted (edge-resident) path,
// whose lazy variant shares the same pooled counters.
func TestConcurrentEdgeRNN(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			g, err := graphrnn.GenerateRoadNetwork(33, 900)
			if err != nil {
				t.Fatal(err)
			}
			var opt *graphrnn.Options
			if backend == "disk" {
				opt = &graphrnn.Options{DiskBacked: true, BufferPages: 8}
			}
			db, err := graphrnn.Open(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := db.PlaceRandomEdgePoints(34, 50)
			if err != nil {
				t.Fatal(err)
			}
			mat, err := db.MaterializeEdgePoints(ps, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			queries := ps.Points()[:8]
			want := make(map[graphrnn.PointID][]graphrnn.PointID)
			for _, qp := range queries {
				qloc, _ := ps.LocationOf(qp)
				res, err := db.Run(context.Background(), edgeRNNQuery(ps.Excluding(qp), qloc, 2, graphrnn.BruteForce()))
				if err != nil {
					t.Fatal(err)
				}
				want[qp] = res.Points
			}
			algos := map[string]graphrnn.Algorithm{
				"eager":   graphrnn.Eager(),
				"lazy":    graphrnn.Lazy(),
				"lazy-ep": graphrnn.LazyEP(),
				"eager-m": graphrnn.EagerM(mat),
				"brute":   graphrnn.BruteForce(),
			}
			var wg sync.WaitGroup
			errc := make(chan error, len(queries)*len(algos))
			for name, algo := range algos {
				for _, qp := range queries {
					wg.Add(1)
					go func(name string, algo graphrnn.Algorithm, qp graphrnn.PointID) {
						defer wg.Done()
						qloc, _ := ps.LocationOf(qp)
						res, err := db.Run(context.Background(), edgeRNNQuery(ps.Excluding(qp), qloc, 2, algo))
						if err != nil {
							errc <- fmt.Errorf("%s q=%d: %w", name, qp, err)
							return
						}
						if !samePoints(res.Points, want[qp]) {
							errc <- fmt.Errorf("%s q=%d: got %v, want %v", name, qp, res.Points, want[qp])
						}
					}(name, algo, qp)
				}
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentBichromaticRNN runs bichromatic queries from many
// goroutines, again against the serial brute-force answer.
func TestConcurrentBichromaticRNN(t *testing.T) {
	for _, backend := range []string{"memory", "disk"} {
		t.Run(backend, func(t *testing.T) {
			g, err := graphrnn.GenerateGrid(35, 400, 4)
			if err != nil {
				t.Fatal(err)
			}
			var opt *graphrnn.Options
			if backend == "disk" {
				opt = &graphrnn.Options{DiskBacked: true, BufferPages: 8}
			}
			db, err := graphrnn.Open(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			cands, err := db.PlaceRandomNodePoints(36, 30)
			if err != nil {
				t.Fatal(err)
			}
			sites, err := db.PlaceRandomNodePoints(37, 20)
			if err != nil {
				t.Fatal(err)
			}
			mat, err := db.MaterializeNodePoints(sites, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			qnodes := []graphrnn.NodeID{0, 7, 42, 99, 123, 200, 250, 399}
			want := make(map[graphrnn.NodeID][]graphrnn.PointID)
			for _, q := range qnodes {
				res, err := db.Run(context.Background(), biQuery(cands, sites, q, 2, graphrnn.BruteForce()))
				if err != nil {
					t.Fatal(err)
				}
				want[q] = res.Points
			}
			algos := map[string]graphrnn.Algorithm{
				"eager":   graphrnn.Eager(),
				"lazy":    graphrnn.Lazy(),
				"lazy-ep": graphrnn.LazyEP(),
				"eager-m": graphrnn.EagerM(mat),
				"brute":   graphrnn.BruteForce(),
			}
			var wg sync.WaitGroup
			errc := make(chan error, len(qnodes)*len(algos))
			for name, algo := range algos {
				for _, q := range qnodes {
					wg.Add(1)
					go func(name string, algo graphrnn.Algorithm, q graphrnn.NodeID) {
						defer wg.Done()
						res, err := db.Run(context.Background(), biQuery(cands, sites, q, 2, algo))
						if err != nil {
							errc <- fmt.Errorf("%s q=%d: %w", name, q, err)
							return
						}
						if !samePoints(res.Points, want[q]) {
							errc <- fmt.Errorf("%s q=%d: got %v, want %v", name, q, res.Points, want[q])
						}
					}(name, algo, q)
				}
			}
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentIOStats hammers PoolStats / BufferPool().ResetStats while
// queries run, which must be safe on a disk-backed DB (the counters move
// under the pool mutex), and checks that every PoolStats is one point in
// time: its aggregate is the sum of its tenant rows.
func TestConcurrentIOStats(t *testing.T) {
	e := newConcEnv(t, true)
	stop := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for {
			select {
			case <-stop:
				return
			default:
				ps := e.db.PoolStats()
				var sum graphrnn.IOStats
				for _, row := range ps.Tenants {
					sum.Reads += row.Reads
					sum.Hits += row.Hits
					sum.Writes += row.Writes
					sum.Evictions += row.Evictions
				}
				if sum != ps.IOStats {
					t.Errorf("PoolStats aggregate %+v, tenant rows sum to %+v", ps.IOStats, sum)
					return
				}
				e.db.BufferPool().ResetStats()
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qp := e.queries[i%len(e.queries)]
			qnode, _ := e.ps.NodeOf(qp)
			for j := 0; j < 20; j++ {
				if _, err := e.db.Run(context.Background(), rnnQuery(e.ps.Excluding(qp), qnode, 2, graphrnn.Eager())); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	<-statsDone
}

// TestRNNBatch covers the batch layer: result/serial equality, empty
// batches, and per-query error propagation for bad k and out-of-range
// nodes.
func TestRNNBatch(t *testing.T) {
	e := newConcEnv(t, false)
	var queries []graphrnn.Query
	var want [][]graphrnn.PointID
	for _, qp := range e.queries {
		qnode, _ := e.ps.NodeOf(qp)
		res, err := e.db.Run(context.Background(), rnnQuery(e.ps, qnode, 2, graphrnn.BruteForce()))
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, rnnQuery(e.ps, qnode, 2, graphrnn.Lazy()))
		want = append(want, res.Points)
	}
	for _, par := range []int{0, 1, 4, 32} {
		results, _ := batch(e.db, queries, &graphrnn.BatchOptions{Parallelism: par})
		if len(results) != len(queries) {
			t.Fatalf("parallelism %d: %d results for %d queries", par, len(results), len(queries))
		}
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("parallelism %d query %d: %v", par, i, r.Err)
			}
			if !samePoints(r.Result.Points, want[i]) {
				t.Fatalf("parallelism %d query %d: got %v, want %v", par, i, r.Result.Points, want[i])
			}
		}
	}
	// Nil options default to GOMAXPROCS.
	if res, _ := batch(e.db, queries[:2], nil); len(res) != 2 || res[0].Err != nil {
		t.Fatalf("nil options batch = %+v", res)
	}
}

func TestRNNBatchEmpty(t *testing.T) {
	e := newConcEnv(t, false)
	if res, _ := batch(e.db, nil, nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	if res, _ := batch(e.db, []graphrnn.Query{}, &graphrnn.BatchOptions{Parallelism: 8}); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
}

func TestRNNBatchErrorPropagation(t *testing.T) {
	e := newConcEnv(t, false)
	good, _ := e.ps.NodeOf(e.queries[0])
	queries := []graphrnn.Query{
		rnnQuery(e.ps, good, 1, graphrnn.Eager()),           // valid
		rnnQuery(e.ps, good, 0, graphrnn.Eager()),           // bad k
		rnnQuery(e.ps, 1<<20, 1, graphrnn.Lazy()),           // out-of-range node
		rnnQuery(e.ps, -1, 1, graphrnn.LazyEP()),            // negative node
		rnnQuery(e.ps, good, 2, graphrnn.EagerM(nil)),       // missing materialization
		rnnQuery(e.ps, good, 1, graphrnn.BruteForce()),      // valid
		rnnQuery(e.ps, good, 2, graphrnn.EagerM(e.mat)),     // valid
		rnnQuery(e.ps, 1<<20, 0, graphrnn.BruteForce()),     // doubly invalid
		rnnQuery(e.ps, good, 1<<20, graphrnn.EagerM(e.mat)), // k beyond MaxK
	}
	results, _ := batch(e.db, queries, &graphrnn.BatchOptions{Parallelism: 4})
	wantErr := []bool{false, true, true, true, true, false, false, true, true}
	for i, r := range results {
		if wantErr[i] && r.Err == nil {
			t.Errorf("query %d: expected error, got %v", i, r.Result.Points)
		}
		if !wantErr[i] && r.Err != nil {
			t.Errorf("query %d: unexpected error %v", i, r.Err)
		}
		if (r.Result == nil) == (r.Err == nil) {
			t.Errorf("query %d: exactly one of Result/Err must be set, got %v / %v", i, r.Result, r.Err)
		}
	}
}

// TestBichromaticRNNBatch checks the bichromatic batch against serial
// answers.
func TestBichromaticRNNBatch(t *testing.T) {
	g, err := graphrnn.GenerateGrid(38, 225, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := db.PlaceRandomNodePoints(39, 20)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := db.PlaceRandomNodePoints(40, 10)
	if err != nil {
		t.Fatal(err)
	}
	qnodes := []graphrnn.NodeID{0, 5, 50, 111, 224}
	var queries []graphrnn.Query
	var want [][]graphrnn.PointID
	for _, q := range qnodes {
		res, err := db.Run(context.Background(), biQuery(cands, sites, q, 1, graphrnn.BruteForce()))
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, biQuery(cands, sites, q, 1, graphrnn.Lazy()))
		want = append(want, res.Points)
	}
	results, _ := batch(db, queries, &graphrnn.BatchOptions{Parallelism: 3})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !samePoints(r.Result.Points, want[i]) {
			t.Fatalf("query %d: got %v, want %v", i, r.Result.Points, want[i])
		}
	}
}

// TestEdgeRNNBatch checks the edge-resident batch helper.
func TestEdgeRNNBatch(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(41, 400)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomEdgePoints(42, 30)
	if err != nil {
		t.Fatal(err)
	}
	pts := ps.Points()[:5]
	var queries []graphrnn.Query
	var want [][]graphrnn.PointID
	for _, qp := range pts {
		qloc, _ := ps.LocationOf(qp)
		res, err := db.Run(context.Background(), edgeRNNQuery(ps, qloc, 1, graphrnn.BruteForce()))
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, edgeRNNQuery(ps, qloc, 1, graphrnn.Eager()))
		want = append(want, res.Points)
	}
	results, _ := batch(db, queries, &graphrnn.BatchOptions{Parallelism: 2})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !samePoints(r.Result.Points, want[i]) {
			t.Fatalf("query %d: got %v, want %v", i, r.Result.Points, want[i])
		}
	}
}

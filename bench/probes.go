package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"graphrnn/internal/exec"
	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/hublabel"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
	"graphrnn/internal/shard"
	"graphrnn/internal/storage"
)

// The layer probes time each internal layer's public functions directly, on
// the benchmarked graph with fixed-seed inputs: what one heap operation,
// one adjacency fetch, one page access or one label intersection costs with
// everything above it taken away. They are the same for every workload.

const (
	probeSeed = 7
	// probeReps repetitions of each timed loop; the median is reported.
	probeReps = 5
)

// probeExec is a live execution context for the probe loops to poll, the
// way the engine loops they stand in for do.
func probeExec() (*exec.Ctx, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	return exec.New(ctx, exec.Budget{}, nil), cancel
}

// timePerOp runs loop probeReps times and returns the median time, in
// nanoseconds, of one of its ops operations.
func timePerOp(ops int, loop func() error) (float64, error) {
	vs := make([]float64, probeReps)
	for r := range vs {
		start := time.Now()
		if err := loop(); err != nil {
			return 0, err
		}
		vs[r] = float64(time.Since(start)) / float64(ops)
	}
	return median(vs), nil
}

// layerProbes returns the probe metrics by name. nodes sizes the network
// (the benchmarked one, or the smoke one).
func layerProbes(nodes int, shards int) (map[string]float64, error) {
	m := map[string]float64{}
	rng := rand.New(rand.NewSource(probeSeed))
	ec, cancel := probeExec()
	defer cancel()

	// gen.road_s: the network every server start regenerates.
	start := time.Now()
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: datasetSeed, Nodes: nodes})
	if err != nil {
		return nil, err
	}
	m["gen.road_s"] = time.Since(start).Seconds()
	n := g.NumNodes()
	targets := make([]graph.NodeID, 1<<14)
	for i := range targets {
		targets[i] = graph.NodeID(rng.Intn(n))
	}

	// pq.push_pop_ns: one push plus one pop on a heap about as deep as an
	// expansion frontier.
	prios := make([]float64, 1024)
	for i := range prios {
		prios[i] = rng.Float64()
	}
	var heap pq.Heap[graph.NodeID]
	d, err := timePerOp(64*len(prios), func() error {
		for range 64 {
			for i, p := range prios {
				heap.Push(graph.NodeID(i), p)
			}
			for i := 0; heap.Len() > 0; i++ {
				heap.Pop()
				if err := ec.Check(int64(i)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["pq.push_pop_ns"] = d

	// exec.check_ns: the poll every expansion step pays once a query is
	// cancellable (every HTTP query is).
	d, err = timePerOp(1<<20, func() error {
		for i := range 1 << 20 {
			if err := ec.Check(int64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["exec.check_ns"] = d

	// graph.adjacency_ns / storage.diskstore_adjacency_ns: one adjacency
	// fetch from the CSR graph, and from the paged store with every page
	// cached (decode cost, no eviction).
	adjacency := func(a graph.Access) (float64, error) {
		var buf []graph.Edge
		return timePerOp(len(targets), func() error {
			for i, t := range targets {
				var err error
				if buf, err = a.Adjacency(t, buf[:0]); err != nil {
					return err
				}
				if err := ec.Check(int64(i)); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if d, err = adjacency(g); err != nil {
		return nil, err
	}
	m["graph.adjacency_ns"] = d
	file := storage.NewMemFile(storage.DefaultPageSize)
	ds, err := storage.BuildDiskStore(g, file, 4*nodes, nil)
	if err != nil {
		return nil, err
	}
	d, err = adjacency(ds)
	if cerr := ds.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	m["storage.diskstore_adjacency_ns"] = d

	// storage.get_hit_ns / get_miss_ns: one page access through a pool
	// tenant whose quota holds the whole file, and through one an eighth
	// of it, scanned cyclically so LRU misses every time.
	pages := file.NumPages()
	pageGets := func(quota int) (float64, error) {
		pool := storage.NewBufferPool(quota)
		t := pool.Attach("probe", file, quota)
		d, err := timePerOp(8*pages, func() error {
			for i := range 8 * pages {
				if _, err := t.Get(storage.PageID(i % pages)); err != nil {
					return err
				}
				if err := ec.Check(int64(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if derr := t.Detach(); err == nil {
			err = derr
		}
		return d, err
	}
	if d, err = pageGets(pages); err != nil {
		return nil, err
	}
	m["storage.get_hit_ns"] = d
	if d, err = pageGets(max(pages/8, 1)); err != nil {
		return nil, err
	}
	m["storage.get_miss_ns"] = d

	// shard.cut_ms: the partitioner a sharded start runs once.
	start = time.Now()
	if _, err := shard.Cut(g, shards, 1, datasetSeed); err != nil {
		return nil, err
	}
	m["shard.cut_ms"] = ms(time.Since(start))

	// hublabel.build_s / label_entries: the labeling every hub-label start
	// builds, on as many workers as the server uses (GOMAXPROCS: one when
	// the benchmark is pinned, which takes the sequential path).
	lab, bst, err := hublabel.BuildOpt(g, hublabel.BuildOptions{Workers: -1})
	if err != nil {
		return nil, err
	}
	m["hublabel.build_s"] = bst.Wall.Seconds()
	m["hublabel.label_entries"] = float64(lab.Entries())

	// hublabel.out_label_us: one label fetch.
	var lbuf []hublabel.Entry
	d, err = timePerOp(len(targets), func() error {
		for i, t := range targets {
			var err error
			if lbuf, err = lab.OutLabel(t, lbuf[:0]); err != nil {
				return err
			}
			if err := ec.Check(int64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["hublabel.out_label_us"] = d / 1000

	// hublabel.rknn_us: one k=2 label-intersection query over the server's
	// point placement.
	ps, err := gen.PlaceNodePoints(rand.New(rand.NewSource(datasetSeed+1)), n, max(int(datasetDensity*float64(n)), 2))
	if err != nil {
		return nil, err
	}
	var pts []hublabel.PointOnNode
	for _, p := range ps.Points() {
		node, ok := ps.NodeOf(p)
		if !ok {
			return nil, fmt.Errorf("point %d has no node", p)
		}
		pts = append(pts, hublabel.PointOnNode{P: p, Node: node})
	}
	idx, err := hublabel.NewIndex(lab, 4, pts)
	if err != nil {
		return nil, err
	}
	queries := targets[:2048]
	d, err = timePerOp(len(queries), func() error {
		for _, t := range queries {
			if _, _, err := idx.RkNNExec(ec, t, 2, points.NoPoint); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["hublabel.rknn_us"] = d / 1000
	return m, nil
}

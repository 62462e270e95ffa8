package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"graphrnn"
)

// dataset is the in-process twin of what every benchmarked rnnserver
// generates at start-up from the same flags: the road network, the data
// points and the bichromatic sites. The benchmark never hands it to the
// server; it serves the brute-force oracle, free-node selection for the
// writer, random-walk routes and the in-process replay.
type dataset struct {
	nodes   int
	seed    int64
	density float64

	g     *graphrnn.Graph
	db    *graphrnn.DB // memory-backed, no substrate attached: the oracle's engine
	ps    *graphrnn.NodePoints
	sites *graphrnn.NodePoints
}

// The tracked network: the same one BENCH_PR2/SHARD/BUILD.json measure.
const (
	datasetNodes   = 20000
	smokeNodes     = 2000
	datasetSeed    = 2006
	datasetDensity = 0.01
)

// newDataset regenerates the server's graph, points and sites. The point
// and site counts mirror cmd/rnnserver's start-up arithmetic.
func newDataset(nodes int) (*dataset, error) {
	d := &dataset{nodes: nodes, seed: datasetSeed, density: datasetDensity}
	var err error
	if d.g, err = graphrnn.GenerateRoadNetwork(d.seed, d.nodes); err != nil {
		return nil, fmt.Errorf("generating the road network: %w", err)
	}
	if d.db, err = graphrnn.Open(d.g, nil); err != nil {
		return nil, fmt.Errorf("opening the oracle DB: %w", err)
	}
	d.ps, d.sites, err = placePoints(d.db, d.seed, d.density)
	return d, err
}

// close releases the oracle DB.
func (d *dataset) close() error { return d.db.Close() }

// placePoints places the server's point and site sets on db.
func placePoints(db *graphrnn.DB, seed int64, density float64) (ps, sites *graphrnn.NodePoints, err error) {
	count := max(int(density*float64(db.Graph().NumNodes())), 2)
	if ps, err = db.PlaceRandomNodePoints(seed+1, count); err != nil {
		return nil, nil, fmt.Errorf("placing points: %w", err)
	}
	if sites, err = db.PlaceRandomNodePoints(seed+2, max(ps.Len()/10, 2)); err != nil {
		return nil, nil, fmt.Errorf("placing sites: %w", err)
	}
	return ps, sites, nil
}

// serverFlags are the rnnserver flags that reproduce this dataset.
func (d *dataset) serverFlags() []string {
	return []string{
		"-family", "road",
		"-nodes", strconv.Itoa(d.nodes),
		"-seed", strconv.FormatInt(d.seed, 10),
		"-density", strconv.FormatFloat(d.density, 'g', -1, 64),
	}
}

// freeNodes lists the nodes that host no data point, ascending: the only
// nodes the writer may insert on.
func (d *dataset) freeNodes() []int {
	var free []int
	for n := range d.g.NumNodes() {
		if _, taken := d.ps.PointAt(graphrnn.NodeID(n)); !taken {
			free = append(free, n)
		}
	}
	return free
}

// toQuery lifts a wire query onto db's declarative surface, the way the
// server's handler does. Algorithm hints that name a substrate-free
// algorithm map to it; "auto" and "" leave the choice to db's planner.
func toQuery(q query, ps, sites *graphrnn.NodePoints) (graphrnn.Query, error) {
	out := graphrnn.Query{K: q.K}
	if ps != nil { // a Sharded owns its point sets and takes none
		out.Points = ps
	}
	switch q.Kind {
	case "rnn":
		out.Kind = graphrnn.KindRNN
	case "bichromatic":
		out.Kind = graphrnn.KindBichromatic
		if sites != nil {
			out.Sites = sites
		}
	case "continuous":
		out.Kind = graphrnn.KindContinuous
	case "knn":
		out.Kind = graphrnn.KindKNN
	default:
		return out, fmt.Errorf("unknown kind %q", q.Kind)
	}
	if out.Kind == graphrnn.KindContinuous {
		out.Route = make([]graphrnn.NodeID, len(q.Route))
		for i, n := range q.Route {
			out.Route[i] = graphrnn.NodeID(n)
		}
	} else {
		out.Target = graphrnn.NodeLocation(graphrnn.NodeID(*q.Node))
	}
	switch q.Algo {
	case "", "auto":
	case "eager":
		out.Algorithm = graphrnn.Eager()
	case "lazy":
		out.Algorithm = graphrnn.Lazy()
	case "lazy-ep":
		out.Algorithm = graphrnn.LazyEP()
	case "brute":
		out.Algorithm = graphrnn.BruteForce()
	default:
		return out, fmt.Errorf("algorithm %q has no in-process mapping", q.Algo)
	}
	return out, nil
}

// oracle answers q with the brute-force algorithm on the memory-backed
// twin: the member ids in ascending order (KNN: the neighbor ids, sorted,
// from the one forward-search substrate).
func (d *dataset) oracle(q query) ([]int, error) {
	if q.Kind != "knn" {
		q.Algo = "brute"
	} else {
		q.Algo = ""
	}
	gq, err := toQuery(q, d.ps, d.sites)
	if err != nil {
		return nil, err
	}
	res, err := d.db.Run(context.Background(), gq)
	if err != nil {
		return nil, err
	}
	return memberIDs(res), nil
}

// memberIDs is the canonical answer of a result: ascending point ids.
func memberIDs(res *graphrnn.Result) []int {
	ids := make([]int, 0, len(res.Points)+len(res.Neighbors))
	for _, p := range res.Points {
		ids = append(ids, int(p))
	}
	for _, n := range res.Neighbors {
		ids = append(ids, int(n.P))
	}
	sort.Ints(ids)
	return ids
}

package graphrnn

import (
	"math/rand"

	"graphrnn/internal/gen"
)

// Synthetic dataset generators reproducing the structure of the paper's
// evaluation networks (Section 6). The originals are not redistributable;
// each generator's config in internal/gen names the structural property of
// its original that the RNN algorithms are sensitive to and that it
// rebuilds. All generators are deterministic for a fixed seed.

// CoauthorshipDataset is a DBLP-like coauthorship network: unit edge
// weights (degree of separation) and per-author, per-venue paper counts for
// ad-hoc predicates.
type CoauthorshipDataset struct {
	Graph *Graph
	// PaperCounts[n][v] is the number of papers of author n in venue v.
	PaperCounts [][]int
}

// AuthorsWithVenueCount returns the authors with exactly count papers in
// venue v (the ad-hoc predicate of Table 1).
func (c *CoauthorshipDataset) AuthorsWithVenueCount(v, count int) []NodeID {
	var out []NodeID
	for n, pc := range c.PaperCounts {
		if v < len(pc) && pc[v] == count {
			out = append(out, NodeID(n))
		}
	}
	return out
}

// GenerateCoauthorship builds a DBLP-like network. Zero targets default to
// the paper's cleaned DBLP scale (4,260 authors, ~13,199 edges, 4 venues).
func GenerateCoauthorship(seed int64, targetNodes, targetEdges, venues int) (*CoauthorshipDataset, error) {
	cfg := gen.DefaultCoauthorship(seed)
	if targetNodes > 0 {
		cfg.TargetNodes = targetNodes
	}
	if targetEdges > 0 {
		cfg.TargetEdges = targetEdges
	}
	if venues > 0 {
		cfg.Venues = venues
	}
	c, err := gen.NewCoauthorship(cfg)
	if err != nil {
		return nil, err
	}
	return &CoauthorshipDataset{Graph: &Graph{g: c.G}, PaperCounts: c.PaperCounts}, nil
}

// GenerateBrite builds a BRITE-like router topology: scale-free with the
// given average degree (the paper uses 4), random weights, low diameter.
func GenerateBrite(seed int64, nodes, avgDegree int) (*Graph, error) {
	g, err := gen.Brite(gen.BriteConfig{Seed: seed, Nodes: nodes, AvgDegree: avgDegree})
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// GenerateRoadNetwork builds a San-Francisco-like planar spatial network:
// coordinates in [0,10000]², Euclidean edge weights, |E|/|V| ≈ 1.27,
// cleaned to its largest connected component.
func GenerateRoadNetwork(seed int64, nodes int) (*Graph, error) {
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: seed, Nodes: nodes})
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// GenerateGrid builds a synthetic grid map with the given average degree
// (>= 4; larger degrees add random edges between nearby nodes, Fig 20).
func GenerateGrid(seed int64, nodes int, degree float64) (*Graph, error) {
	g, err := gen.Grid(gen.GridConfig{Seed: seed, Nodes: nodes, Degree: degree})
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// PlaceRandomNodePoints places count points on distinct uniformly random
// nodes (density D corresponds to count = D·|V|, Section 6).
func (db *DB) PlaceRandomNodePoints(seed int64, count int) (*NodePoints, error) {
	rng := rand.New(rand.NewSource(seed))
	s, err := gen.PlaceNodePoints(rng, db.store.NumNodes(), count)
	if err != nil {
		return nil, err
	}
	return newNodePoints(db, s), nil
}

// PlaceRandomEdgePoints distributes count points uniformly over random
// edges at uniform offsets (the unrestricted workloads of Section 6.2).
func (db *DB) PlaceRandomEdgePoints(seed int64, count int) (*EdgePoints, error) {
	rng := rand.New(rand.NewSource(seed))
	s, err := gen.PlaceEdgePoints(rng, gen.Edges(db.graph.g), count)
	if err != nil {
		return nil, err
	}
	return newEdgePoints(db, s), nil
}

// RandomWalkRoute builds a route for continuous queries: a random walk of
// at most size nodes without repetition (Fig 19's workload).
func (db *DB) RandomWalkRoute(seed int64, size int) []NodeID {
	rng := rand.New(rand.NewSource(seed))
	route := gen.RandomWalkRoute(rng, db.graph.g, size)
	out := make([]NodeID, len(route))
	for i, n := range route {
		out[i] = NodeID(n)
	}
	return out
}

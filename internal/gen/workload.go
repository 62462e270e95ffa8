package gen

import (
	"fmt"
	"math"
	"math/rand"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// Workload construction following Section 6: data density D = |P| / |V|,
// points placed uniformly (on nodes for restricted networks, on edges for
// unrestricted ones), and query locations sampled from the data points so
// that queries follow the data distribution. The sampled point is excluded
// from its own query's point set by the experiment harness (the query
// models a newly arriving object).

// PlaceNodePoints places count points on distinct uniformly random nodes.
func PlaceNodePoints(rng *rand.Rand, numNodes, count int) (*points.NodeSet, error) {
	if count > numNodes {
		return nil, fmt.Errorf("gen: cannot place %d points on %d nodes", count, numNodes)
	}
	ps := points.NewNodeSet(numNodes)
	perm := rng.Perm(numNodes)
	for i := 0; i < count; i++ {
		if _, err := ps.Place(graph.NodeID(perm[i])); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// EdgeList captures the undirected edges of a graph for sampling.
type EdgeList struct {
	U, V []graph.NodeID
	W    []graph.Dist
	LogQ int // log₂ of the graph's quantum (graph.Graph.LogQuantum)
}

// Edges extracts the edge list of g.
func Edges(g *graph.Graph) *EdgeList {
	el := &EdgeList{LogQ: g.LogQuantum()}
	g.ForEachEdge(func(u, v graph.NodeID, w graph.Dist) {
		el.U = append(el.U, u)
		el.V = append(el.V, v)
		el.W = append(el.W, w)
	})
	return el
}

// PlaceEdgePoints distributes count points uniformly over random edges at
// uniform offsets (the unrestricted workloads of Section 6.2), each rounded
// to a count of the graph's quantum.
func PlaceEdgePoints(rng *rand.Rand, el *EdgeList, count int) (*points.EdgeSet, error) {
	if len(el.U) == 0 {
		return nil, fmt.Errorf("gen: graph has no edges")
	}
	ps := points.NewEdgeSet(el.LogQ)
	for i := 0; i < count; i++ {
		e := rng.Intn(len(el.U))
		if _, err := ps.Place(el.U[e], el.V[e], graph.Dist(math.Round(rng.Float64()*float64(el.W[e])))); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// RandomWalkRoute builds a route for continuous queries: a random walk
// without repeated nodes, as in Fig 19.
func RandomWalkRoute(rng *rand.Rand, g *graph.Graph, size int) []graph.NodeID {
	start := graph.NodeID(rng.Intn(g.NumNodes()))
	route := []graph.NodeID{start}
	onRoute := map[graph.NodeID]bool{start: true}
	var adj []graph.Edge
	for len(route) < size {
		adj, _ = g.Adjacency(route[len(route)-1], adj)
		options := adj[:0:0]
		for _, e := range adj {
			if !onRoute[e.To] {
				options = append(options, e)
			}
		}
		if len(options) == 0 {
			break
		}
		next := options[rng.Intn(len(options))].To
		route = append(route, next)
		onRoute[next] = true
	}
	return route
}

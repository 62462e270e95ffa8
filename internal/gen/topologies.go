package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"graphrnn/internal/graph"
)

// BriteConfig parameterizes the BRITE-like router topology generator. The
// paper uses BRITE with average degree 4; Barabási–Albert preferential
// attachment with m = AvgDegree/2 reproduces the property the experiments
// depend on — arbitrary (non-spatial) connections with a tiny diameter, so
// expansions saturate the node set within a few hops ("exponential
// expansion", Figs 15–16).
type BriteConfig struct {
	Seed      int64
	Nodes     int
	AvgDegree int
	// MaxWeight caps the uniform edge weights, drawn from [1, MaxWeight).
	// Zero defaults to 10.
	MaxWeight float64
}

// Brite generates a scale-free router-style topology.
func Brite(cfg BriteConfig) (*graph.Graph, error) {
	if cfg.Nodes < 4 {
		return nil, fmt.Errorf("gen: BRITE topology needs at least 4 nodes, got %d", cfg.Nodes)
	}
	m := cfg.AvgDegree / 2
	if m < 1 {
		m = 1
	}
	if cfg.MaxWeight <= 1 {
		cfg.MaxWeight = 10
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder(cfg.Nodes)
	w := func() float64 { return 1 + rng.Float64()*(cfg.MaxWeight-1) }

	// Attachment targets, repeated by degree (the standard BA urn).
	urn := make([]graph.NodeID, 0, 2*m*cfg.Nodes)
	// Seed clique over the first m+1 nodes.
	for i := 0; i <= m && i < cfg.Nodes; i++ {
		for j := 0; j < i; j++ {
			if err := b.AddEdge(graph.NodeID(i), graph.NodeID(j), w()); err != nil {
				return nil, err
			}
			urn = append(urn, graph.NodeID(i), graph.NodeID(j))
		}
	}
	// Attachment targets of one node, in draw order: ranging over a map here
	// made the topology differ from run to run for the same seed.
	chosen := make([]graph.NodeID, 0, m)
	for n := m + 1; n < cfg.Nodes; n++ {
		chosen = chosen[:0]
		for len(chosen) < m {
			if t := urn[rng.Intn(len(urn))]; !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			if err := b.AddEdge(graph.NodeID(n), t, w()); err != nil {
				return nil, err
			}
			urn = append(urn, graph.NodeID(n), t)
		}
	}
	return b.Build()
}

// RoadConfig parameterizes the San-Francisco-like spatial network: a
// jittered grid of intersections in [0, Extent]² connected to spatial
// neighbours, with Euclidean edge weights and an |E|/|V| ratio matching the
// cleaned SF map (223,001 / 174,956 ≈ 1.27). The generated graph is
// cleaned to its largest connected component, as the paper does.
type RoadConfig struct {
	Seed  int64
	Nodes int
	// EdgeFactor is the target |E| / |V| ratio; zero defaults to 1.27.
	EdgeFactor float64
	// Extent is the coordinate range; zero defaults to 10,000 (the paper
	// normalizes SF coordinates into [0, 10000]²).
	Extent float64
}

// RoadNetwork generates a planar spatial network.
func RoadNetwork(cfg RoadConfig) (*graph.Graph, error) {
	if cfg.Nodes < 9 {
		return nil, fmt.Errorf("gen: road network needs at least 9 nodes, got %d", cfg.Nodes)
	}
	if cfg.EdgeFactor <= 0 {
		cfg.EdgeFactor = 1.27
	}
	if cfg.Extent <= 0 {
		cfg.Extent = 10000
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	side := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	cell := cfg.Extent / float64(side)
	n := cfg.Nodes
	coords := make([]graph.Coord, n)
	for i := 0; i < n; i++ {
		gx, gy := i%side, i/side
		coords[i] = graph.Coord{
			X: (float64(gx) + 0.15 + 0.7*rng.Float64()) * cell,
			Y: (float64(gy) + 0.15 + 0.7*rng.Float64()) * cell,
		}
	}
	b := graph.NewBuilder(n)
	if err := b.SetCoords(coords); err != nil {
		return nil, err
	}
	dist := func(u, v int) float64 {
		dx := coords[u].X - coords[v].X
		dy := coords[u].Y - coords[v].Y
		return math.Hypot(dx, dy)
	}
	// Candidate edges: right and down grid neighbours (≈ 2|V|), kept with
	// probability EdgeFactor/2 — above the square-lattice bond percolation
	// threshold, so the giant component covers almost every node.
	keepProb := cfg.EdgeFactor / 2
	add := func(u, v int) error {
		if v >= n || rng.Float64() >= keepProb {
			return nil
		}
		return b.AddEdge(graph.NodeID(u), graph.NodeID(v), dist(u, v))
	}
	for i := 0; i < n; i++ {
		gx := i % side
		if gx+1 < side {
			if err := add(i, i+1); err != nil {
				return nil, err
			}
		}
		if err := add(i, i+side); err != nil {
			return nil, err
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	keep := graph.ConnectedComponent(g)
	sub, _, err := graph.InducedSubgraph(g, keep)
	if err != nil {
		return nil, err
	}
	return sub, nil
}

// GridConfig parameterizes the synthetic grid maps of Fig 20 (following
// HiTi [7] and Jensen et al. [5]): a unit square lattice with average
// degree 4; higher degrees are reached by adding random edges between
// nearby nodes, weighted by their Euclidean distance.
type GridConfig struct {
	Seed  int64
	Nodes int
	// Degree is the target average degree, >= 4.
	Degree float64
}

// Grid generates a grid map.
func Grid(cfg GridConfig) (*graph.Graph, error) {
	if cfg.Nodes < 9 {
		return nil, fmt.Errorf("gen: grid needs at least 9 nodes, got %d", cfg.Nodes)
	}
	if cfg.Degree < 4 {
		cfg.Degree = 4
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	side := int(math.Ceil(math.Sqrt(float64(cfg.Nodes))))
	n := side * side // full square keeps the lattice regular
	coords := make([]graph.Coord, n)
	for i := range coords {
		coords[i] = graph.Coord{X: float64(i % side), Y: float64(i / side)}
	}
	b := graph.NewBuilder(n)
	if err := b.SetCoords(coords); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		gx := i % side
		if gx+1 < side {
			if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
				return nil, err
			}
		}
		if i+side < n {
			if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+side), 1); err != nil {
				return nil, err
			}
		}
	}
	// Extra edges between nearby nodes until the average degree target.
	baseEdges := 2*n - 2*side
	extra := int(cfg.Degree*float64(n)/2) - baseEdges
	seen := map[[2]int]bool{}
	for added := 0; added < extra; {
		u := rng.Intn(n)
		gx, gy := u%side, u/side
		dx, dy := rng.Intn(7)-3, rng.Intn(7)-3
		if dx == 0 && dy == 0 {
			continue
		}
		nx, ny := gx+dx, gy+dy
		if nx < 0 || nx >= side || ny < 0 || ny >= side {
			continue
		}
		v := ny*side + nx
		// Skip lattice neighbours (already connected) and duplicates.
		if (dx == 0 && (dy == 1 || dy == -1)) || (dy == 0 && (dx == 1 || dx == -1)) {
			continue
		}
		a, c := u, v
		if a > c {
			a, c = c, a
		}
		if seen[[2]int{a, c}] {
			continue
		}
		seen[[2]int{a, c}] = true
		w := math.Hypot(float64(dx), float64(dy))
		if err := b.AddEdge(graph.NodeID(u), graph.NodeID(v), w); err != nil {
			return nil, err
		}
		added++
	}
	return b.Build()
}

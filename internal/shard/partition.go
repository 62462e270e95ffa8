// Package shard partitions a graph's node set into balanced edge-cut
// regions for scatter-gather serving. Road-style networks partition by
// region: seeds are spread with a greedy k-center pass over BFS hop
// distance, regions grow around them with a balanced multi-source BFS,
// and each region gets a halo — the ring of foreign nodes within a few
// hops of its border — so a shard holding one region can replicate the
// competitor points just outside it.
//
// The partition is deterministic for a given (graph, shards, haloDepth,
// seed) tuple, so independent processes that generate the same topology
// compute byte-identical partitions without exchanging any state.
package shard

import (
	"fmt"
	"math/rand"
	"sort"

	"graphrnn/internal/graph"
)

// Partition assigns every node to exactly one shard and records the
// halo ring of each shard's region.
type Partition struct {
	// Shards is the number of regions.
	Shards int
	// HaloDepth is the ring width in hops used to build Halo.
	HaloDepth int
	// Owner maps each node to the shard that owns it.
	Owner []int32
	// Halo lists, per shard, the foreign nodes within HaloDepth hops of
	// the shard's region, ascending. Empty when HaloDepth is 0.
	Halo [][]graph.NodeID
	// Sizes counts owned nodes per shard.
	Sizes []int
	// CutEdges counts edges whose endpoints live in different shards.
	CutEdges int
}

// ShardOf returns the shard owning node n.
func (p *Partition) ShardOf(n graph.NodeID) int { return int(p.Owner[n]) }

// Cut partitions g into shards balanced regions. Seeds are chosen by
// greedy k-center over BFS hop distance (the first seed pseudo-randomly
// from seed), regions grow with a balanced multi-source BFS that always
// extends the currently smallest region, and nodes unreachable from
// every seed are folded into the smallest region component by component.
// The partition is a pure function of (graph, shards, haloDepth, seed):
// the only randomness is the seeded generator picking the first seed.
func Cut(g graph.Access, shards, haloDepth int, seed int64) (*Partition, error) {
	n := g.NumNodes()
	if shards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", shards)
	}
	if haloDepth < 0 {
		return nil, fmt.Errorf("shard: negative halo depth %d", haloDepth)
	}
	if n == 0 {
		return nil, fmt.Errorf("shard: empty graph")
	}
	if shards > n {
		return nil, fmt.Errorf("shard: %d shards over %d nodes", shards, n)
	}

	p := &Partition{
		Shards:    shards,
		HaloDepth: haloDepth,
		Owner:     make([]int32, n),
		Halo:      make([][]graph.NodeID, shards),
		Sizes:     make([]int, shards),
	}
	if shards == 1 {
		p.Sizes[0] = n
		return p, nil
	}

	seeds, err := kCenterSeeds(g, shards, seed)
	if err != nil {
		return nil, err
	}
	if err := growRegions(g, seeds, p); err != nil {
		return nil, err
	}
	if err := countCutEdges(g, p); err != nil {
		return nil, err
	}
	if haloDepth > 0 {
		if err := buildHalos(g, p); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// kCenterSeeds spreads region seeds with the greedy k-center heuristic:
// each next seed is the node farthest (in BFS hops) from all chosen
// seeds. Nodes in components no seed has reached yet count as infinitely
// far, so every sizable component attracts a seed before dense areas get
// a second one.
func kCenterSeeds(g graph.Access, shards int, seed int64) ([]graph.NodeID, error) {
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]graph.NodeID, 1, shards)
	seeds[0] = graph.NodeID(rng.Intn(n))

	const unreached = -1
	dist := make([]int32, n)
	var queue []graph.NodeID
	var adj []graph.Edge
	for len(seeds) < shards {
		for i := range dist {
			dist[i] = unreached
		}
		queue = queue[:0]
		for _, s := range seeds {
			dist[s] = 0
			queue = append(queue, s)
		}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			var err error
			adj, err = g.Adjacency(u, adj)
			if err != nil {
				return nil, err
			}
			for _, e := range adj {
				if dist[e.To] == unreached {
					dist[e.To] = dist[u] + 1
					queue = append(queue, e.To)
				}
			}
		}
		best := graph.NodeID(-1)
		bestDist := int32(-1)
		for v := range n {
			d := dist[v]
			if d == unreached {
				// An untouched component: the farthest node there is.
				best, bestDist = graph.NodeID(v), int32(n)
				break
			}
			if d > bestDist {
				best, bestDist = graph.NodeID(v), d
			}
		}
		if bestDist == 0 {
			// Fewer distinct positions than shards (e.g. a clique
			// smaller than the shard count): reuse an arbitrary
			// unseeded node; growRegions keeps it a singleton region.
			for v := range n {
				if !contains(seeds, graph.NodeID(v)) {
					best = graph.NodeID(v)
					break
				}
			}
		}
		seeds = append(seeds, best)
	}
	return seeds, nil
}

func contains(ns []graph.NodeID, n graph.NodeID) bool {
	for _, m := range ns {
		if m == n {
			return true
		}
	}
	return false
}

// growRegions claims every node for a shard: a balanced multi-source BFS
// always extends the smallest region with a non-empty frontier, then
// leftovers (components no seed reaches) are folded whole into whichever
// region is smallest when they are found.
func growRegions(g graph.Access, seeds []graph.NodeID, p *Partition) error {
	n := g.NumNodes()
	const unowned = -1
	for i := range p.Owner {
		p.Owner[i] = unowned
	}
	queues := make([][]graph.NodeID, p.Shards)
	for s, sd := range seeds {
		p.Owner[sd] = int32(s)
		p.Sizes[s] = 1
		queues[s] = append(queues[s], sd)
	}
	var adj []graph.Edge
	claimFrom := func(s int, u graph.NodeID) error {
		var err error
		adj, err = g.Adjacency(u, adj)
		if err != nil {
			return err
		}
		for _, e := range adj {
			if p.Owner[e.To] == unowned {
				p.Owner[e.To] = int32(s)
				p.Sizes[s]++
				queues[s] = append(queues[s], e.To)
			}
		}
		return nil
	}
	for {
		// The smallest region with work left grows next; ties break
		// toward the lower shard index for determinism.
		best := -1
		for s := range queues {
			if len(queues[s]) == 0 {
				continue
			}
			if best == -1 || p.Sizes[s] < p.Sizes[best] {
				best = s
			}
		}
		if best == -1 {
			break
		}
		u := queues[best][0]
		queues[best] = queues[best][1:]
		if err := claimFrom(best, u); err != nil {
			return err
		}
	}
	// Components unreachable from every seed: fold each whole component
	// into the smallest region at the moment it is discovered.
	for v := range n {
		if p.Owner[v] != unowned {
			continue
		}
		s := 0
		for t := 1; t < p.Shards; t++ {
			if p.Sizes[t] < p.Sizes[s] {
				s = t
			}
		}
		p.Owner[v] = int32(s)
		p.Sizes[s]++
		comp := []graph.NodeID{graph.NodeID(v)}
		for head := 0; head < len(comp); head++ {
			if err := claimFrom(s, comp[head]); err != nil {
				return err
			}
			comp = append(comp, queues[s]...)
			queues[s] = queues[s][:0]
		}
	}
	return nil
}

func countCutEdges(g graph.Access, p *Partition) error {
	var adj []graph.Edge
	for v := range g.NumNodes() {
		var err error
		adj, err = g.Adjacency(graph.NodeID(v), adj)
		if err != nil {
			return err
		}
		for _, e := range adj {
			// Count each undirected cut edge once; in a digraph's
			// forward adjacency every arc appears once, so the guard
			// only dedupes genuinely bidirectional pairs.
			if graph.NodeID(v) < e.To && p.Owner[v] != p.Owner[e.To] {
				p.CutEdges++
			}
		}
	}
	return nil
}

// buildHalos runs one BFS per shard, seeded with the region's border
// ring, claiming foreign nodes for up to HaloDepth hops.
func buildHalos(g graph.Access, p *Partition) error {
	n := g.NumNodes()
	depth := make([]int32, n)
	var adj []graph.Edge
	for s := range p.Shards {
		for i := range depth {
			depth[i] = -1
		}
		var ring []graph.NodeID
		// Ring 1: foreign neighbors of owned nodes.
		for v := range n {
			if p.Owner[v] != int32(s) {
				continue
			}
			var err error
			adj, err = g.Adjacency(graph.NodeID(v), adj)
			if err != nil {
				return err
			}
			for _, e := range adj {
				if p.Owner[e.To] != int32(s) && depth[e.To] == -1 {
					depth[e.To] = 1
					ring = append(ring, e.To)
				}
			}
		}
		halo := append([]graph.NodeID(nil), ring...)
		for head := 0; head < len(ring); head++ {
			u := ring[head]
			if depth[u] >= int32(p.HaloDepth) {
				continue
			}
			var err error
			adj, err = g.Adjacency(u, adj)
			if err != nil {
				return err
			}
			for _, e := range adj {
				if p.Owner[e.To] != int32(s) && depth[e.To] == -1 {
					depth[e.To] = depth[u] + 1
					ring = append(ring, e.To)
					halo = append(halo, e.To)
				}
			}
		}
		sort.Slice(halo, func(i, j int) bool { return halo[i] < halo[j] })
		p.Halo[s] = halo
	}
	return nil
}

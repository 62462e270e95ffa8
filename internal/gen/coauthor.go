// Package gen synthesizes the four network families of the paper's
// evaluation (Section 6). The original datasets (the DBLP coauthorship
// graph, BRITE router topologies, the San Francisco road map, and the grid
// maps of HiTi) are not redistributable in this offline reproduction, so
// each generator rebuilds the structural properties the RNN algorithms are
// sensitive to; the comment on each generator's config records which, and
// why that property is the one that matters. All generators are
// deterministic for a fixed seed.
package gen

import (
	"fmt"
	"math/rand"

	"graphrnn/internal/graph"
)

// CoauthorshipConfig parameterizes the DBLP-like generator. The defaults
// reproduce the paper's cleaned graph scale: 4,260 authors and ~13,199
// coauthorship edges over four venues, unit edge weights (degree of
// separation).
type CoauthorshipConfig struct {
	Seed        int64
	TargetNodes int
	TargetEdges int
	Venues      int
}

// DefaultCoauthorship returns the paper-scale configuration.
func DefaultCoauthorship(seed int64) CoauthorshipConfig {
	return CoauthorshipConfig{Seed: seed, TargetNodes: 4260, TargetEdges: 13199, Venues: 4}
}

// Coauthorship is a synthetic coauthorship network: a community-overlap
// model where "papers" with venue labels and Zipf-ish team sizes link their
// authors pairwise with weight 1. Author selection is preferential in the
// number of prior papers, giving the heavy-tailed collaboration degrees of
// real coauthorship graphs. PaperCounts[n][v] is the number of papers of
// author n in venue v, the attribute the ad-hoc queries of Table 1 filter
// on.
type Coauthorship struct {
	G           *graph.Graph
	PaperCounts [][]int
}

// NewCoauthorship generates a coauthorship network and cleans it to its
// largest connected component, as the paper does with DBLP.
func NewCoauthorship(cfg CoauthorshipConfig) (*Coauthorship, error) {
	if cfg.TargetNodes < 10 || cfg.TargetEdges < cfg.TargetNodes/2 {
		return nil, fmt.Errorf("gen: implausible coauthorship targets |V|=%d |E|=%d", cfg.TargetNodes, cfg.TargetEdges)
	}
	if cfg.Venues < 1 {
		return nil, fmt.Errorf("gen: need at least one venue")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	type edgeKey struct{ u, v int32 }
	edges := make(map[edgeKey]bool)
	var authorPapers []int // #papers per author (preferential weight)
	var totalPapers int
	counts := make([][]int, 0, cfg.TargetNodes)

	newAuthor := func() int {
		authorPapers = append(authorPapers, 0)
		counts = append(counts, make([]int, cfg.Venues))
		return len(authorPapers) - 1
	}
	// Preferential pick: weight 1 + #papers.
	pickExisting := func() int {
		total := totalPapers + len(authorPapers)
		r := rng.Intn(total)
		for i, p := range authorPapers {
			r -= p + 1
			if r < 0 {
				return i
			}
		}
		return len(authorPapers) - 1
	}
	// Venue popularity: the first venues publish more (SIGMOD/VLDB/ICDE
	// vs PODS in the paper's dataset).
	venueOf := func() int {
		w := make([]int, cfg.Venues)
		tot := 0
		for v := range w {
			w[v] = cfg.Venues - v + 1
			tot += w[v]
		}
		r := rng.Intn(tot)
		for v := range w {
			r -= w[v]
			if r < 0 {
				return v
			}
		}
		return 0
	}

	for i := 0; i < 3; i++ {
		newAuthor()
	}
	team := make([]int, 0, 10)
	// nodesPerEdge is the schedule that makes both targets land together.
	nodesPerEdge := float64(cfg.TargetNodes) / float64(cfg.TargetEdges)
	maxPapers := 40 * cfg.TargetEdges
	papers := 0
	for len(edges) < cfg.TargetEdges || len(authorPapers) < cfg.TargetNodes {
		papers++
		if papers > maxPapers {
			return nil, fmt.Errorf("gen: coauthorship generation did not converge (%d papers, |V|=%d |E|=%d)",
				papers, len(authorPapers), len(edges))
		}
		// Team size: geometric-ish, mean ~2.7, capped at 8.
		size := 1
		for size < 8 && rng.Float64() < 0.62 {
			size++
		}
		team = team[:0]
		inTeam := map[int]bool{}
		for len(team) < size {
			var a int
			// The first member is always an existing author, so a paper
			// never creates an isolated new-authors-only component; the
			// probability of introducing new authors adapts to whether
			// the node count is behind the edge count's schedule.
			pNew := 0.15
			if float64(len(authorPapers)) < nodesPerEdge*float64(len(edges)+1) {
				pNew = 0.85
			}
			if len(team) == 0 || len(authorPapers) >= cfg.TargetNodes {
				pNew = 0
			}
			if rng.Float64() < pNew {
				a = newAuthor()
			} else {
				a = pickExisting()
			}
			if inTeam[a] {
				if len(team) > 0 && (len(authorPapers) >= cfg.TargetNodes || rng.Float64() < 0.5) {
					break // avoid spinning on tiny author pools
				}
				continue
			}
			inTeam[a] = true
			team = append(team, a)
		}
		v := venueOf()
		for _, a := range team {
			authorPapers[a]++
			counts[a][v]++
			totalPapers++
		}
		for i := 0; i < len(team); i++ {
			for j := i + 1; j < len(team); j++ {
				u, w := int32(team[i]), int32(team[j])
				if u > w {
					u, w = w, u
				}
				edges[edgeKey{u, w}] = true
			}
		}
	}

	b := graph.NewBuilder(len(authorPapers))
	for e := range edges {
		if err := b.AddEdge(graph.NodeID(e.u), graph.NodeID(e.v), 1); err != nil {
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
	subCounts := make([][]int, len(keep))
	for new, old := range keep {
		subCounts[new] = counts[old]
	}
	return &Coauthorship{G: sub, PaperCounts: subCounts}, nil
}

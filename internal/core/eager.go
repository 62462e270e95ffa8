package core

import (
	"fmt"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// eager is the eager algorithm of Section 3.2: the network is expanded
// around the query and every de-heaped node n is probed with
// range-NN(n, k, d(n,q)) over sites; if k competitors lie strictly closer to
// n than the query, Lemma 1 prunes the expansion at n.
//
// Monochromatic and continuous queries (cands == sites; Section 5.1 runs a
// route as one multi-source expansion under d(r,n) = min over route nodes)
// verify every point a probe discovers, once. Bichromatic queries (Section
// 5.1) need no verification at all: the main expansion knows the exact
// d(n,q) of every de-heaped node, so the probe already decides whether n —
// and the candidate residing on it — belongs to the answer region.
//
// cands must already exclude a point co-located with the query, if the
// caller wants the usual "newly arrived object" semantics (see
// points.ExcludeNode).
func (s *Searcher) eager(cands, sites points.NodeView, mono bool, sources []graph.NodeID, target nodeTarget, k int) (*Result, error) {
	var st Stats
	main := s.acquire()
	defer func() { s.harvest(&st, main); s.release(main) }()
	main.begin()

	decided := make(map[points.PointID]bool)
	var results []points.PointID
	for _, src := range sources {
		if mono {
			// A visible point on a source node is at distance 0 from the
			// query and is trivially a member; range-NN probes (strict
			// range) can never discover it, so handle it here.
			if p, ok := cands.PointAt(src); ok && !decided[p] {
				decided[p] = true
				results = s.confirm(results, p)
			}
		}
		main.push(src, 0)
	}

	var found []PointDist
	for {
		n, d, ok := main.pop()
		if !ok {
			break
		}
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return execResult(results, st, err)
		}
		var err error
		found, err = s.rangeNN(&st, sites, n, k, d, found)
		if err != nil {
			return execResult(results, st, err)
		}
		if mono {
			for _, pd := range found {
				if decided[pd.P] {
					continue
				}
				decided[pd.P] = true
				pnode, ok := cands.NodeOf(pd.P)
				if !ok {
					return nil, fmt.Errorf("core: point %d has no node", pd.P)
				}
				// d + pd.D upper-bounds the point-to-query distance; the
				// verification reaches the query at its exact distance.
				member, err := s.verify(&st, sites, pd.P, pnode, target, k, d+pd.D, nil)
				if err != nil {
					return execResult(results, st, err)
				}
				if member {
					results = s.confirm(results, pd.P)
				}
			}
		}
		if len(found) >= k {
			continue // Lemma 1: n cannot lead to further results
		}
		if !mono {
			if p, ok := cands.PointAt(n); ok && !decided[p] {
				decided[p] = true
				results = s.confirm(results, p)
			}
		}
		if main.adj, err = s.g.Adjacency(n, main.adj); err != nil {
			return nil, err
		}
		for _, e := range main.adj {
			main.push(e.To, d+e.W)
		}
	}
	return finishResult(results, st), nil
}

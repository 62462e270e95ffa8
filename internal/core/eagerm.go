package core

import (
	"fmt"
	"math"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// eagerM is eager-M (Section 4.1): the eager traversal consults the
// materialized lists instead of issuing range-NN sub-queries, and
// verification of a discovered point p first tries the materialized
// shortcut — if the upper bound d(q,n)+d(n,p) is within the k-th NN radius
// of p, p is accepted without any expansion; otherwise a regular
// verification query runs. Bichromatic queries need no verification, as in
// eager.
//
// mat must have been built over the point set that backs sites (Section
// 5.1: "we simply materialize KNN(n) ⊆ Q"). sites may hide points, e.g. the
// query-co-located one; hidden points are skipped when lists are read — the
// spare K+1-th entry compensates.
func (s *Searcher) eagerM(cands, sites points.NodeView, mono bool, mat *Materialized, sources []graph.NodeID, target nodeTarget, k int) (*Result, error) {
	var st Stats
	main := s.acquire()
	defer func() { s.harvest(&st, main); s.release(main) }()
	main.begin()

	decided := make(map[points.PointID]bool)
	var results []points.PointID
	for _, src := range sources {
		if mono {
			if p, ok := cands.PointAt(src); ok && !decided[p] {
				decided[p] = true
				results = s.confirm(results, p)
			}
		}
		main.push(src, 0)
	}

	var lst, plst []MatEntry
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
		lst, err = mat.List(n, lst)
		if err != nil {
			return nil, err
		}
		st.MatReads++
		// The visible entries strictly closer to n than the query are
		// exactly what range-NN(n, k, d) would discover.
		closer := 0
		dStrict := strictBound(d)
		for _, e := range lst {
			if closer >= k || e.D >= dStrict {
				break
			}
			if _, visible := sites.NodeOf(e.P); !visible {
				continue
			}
			closer++
			if !mono || decided[e.P] {
				continue
			}
			decided[e.P] = true
			member, err := s.verifyWithMat(&st, sites, mat, e.P, target, k, d+e.D, &plst)
			if err != nil {
				return execResult(results, st, err)
			}
			if member {
				results = s.confirm(results, e.P)
			}
		}
		if closer >= k {
			continue // Lemma 1 prune
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

// verifyWithMat verifies candidate p using the materialized shortcut: if
// the upper bound ub on the candidate-to-query distance is within p's k-th
// NN radius (read from the list of p's node, skipping p itself and hidden
// points), p is a member without expansion; otherwise fall back to a
// verification query.
func (s *Searcher) verifyWithMat(st *Stats, ps points.NodeView, mat *Materialized, p points.PointID, target nodeTarget, k int, ub float64, plst *[]MatEntry) (bool, error) {
	pnode, ok := ps.NodeOf(p)
	if !ok {
		return false, fmt.Errorf("core: candidate point %d has no node", p)
	}
	var err error
	*plst, err = mat.List(pnode, *plst)
	if err != nil {
		return false, err
	}
	st.MatReads++
	rk := math.Inf(1)
	seen := 0
	for _, e := range *plst {
		if e.P == p {
			continue
		}
		if _, visible := ps.NodeOf(e.P); !visible {
			continue
		}
		seen++
		if seen == k {
			rk = e.D
			break
		}
	}
	if seen < k && len(*plst) == mat.cap {
		// The list is truncated and exposes fewer than k other visible
		// entries (self plus a hidden point consumed slots); any point
		// beyond the list is at least as far as the last stored entry,
		// which therefore lower-bounds the k-th NN radius.
		rk = (*plst)[len(*plst)-1].D
	}
	if upperBound(ub) <= strictBound(rk) || rk == math.Inf(1) {
		// Fewer than k points can be strictly closer to p than the query.
		return true, nil
	}
	return s.verify(st, ps, p, pnode, target, k, ub, nil)
}

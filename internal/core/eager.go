package core

import (
	"cmp"
	"slices"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// confirmAtSources confirms the node-resident points sitting on the sources
// of a monochromatic walk: a visible point on a source node is at distance
// 0 from the query and trivially a member, and range-NN probes (strict
// range) can never discover it.
func (s *Searcher) confirmAtSources(cands PointSet, sources []Loc, decided map[points.PointID]bool, results []points.PointID) []points.PointID {
	for _, src := range sources {
		if !src.IsNode() {
			continue // nothing sits on a position inside an edge
		}
		if p, ok := cands.at(src.U); ok && !decided[p] {
			decided[p] = true
			results = s.confirm(results, p)
		}
	}
	return results
}

// seedSources seeds a main walk at the query's source locations: their
// anchors plus, for a source inside an edge, the edge-resident candidates —
// and, with withSites, the competitors — on the source's own edge at their
// direct distances.
func (s *Searcher) seedSources(sc *scratch, sources []Loc, cands, sites PointSet, withSites bool) error {
	for _, src := range sources {
		if err := sc.seed(s, src); err != nil {
			return err
		}
		if err := sc.pushSameEdgePoints(cands.Edge, setCand, src, graph.Inf); err != nil {
			return err
		}
		if withSites {
			if err := sc.pushSameEdgePoints(sites.Edge, setSite, src, graph.Inf); err != nil {
				return err
			}
		}
	}
	return nil
}

// eager is the eager algorithm of Section 3.2, over either residency
// (Section 5.2): the network is expanded around the query and every
// de-heaped node n is probed for the competitors strictly closer to n than
// the query — with range-NN(n, k, d(n,q)) over sites, or, as eager-M
// (Section 4.1, a non-nil mat), by reading n's materialized list; if k of
// them exist, Lemma 1 prunes the expansion at n.
//
// The main expansion walks in-arcs, so a popped node carries d(n→q), and
// the probes and verifications walk out-arcs. Lemma 1 holds in that
// directed form: if k points x satisfy d(n→x) < d(n→q), any p whose
// shortest path to q passes through n has d(p→x) <= d(p→n) + d(n→x) <
// d(p→q), so p is no member. On an undirected network both walks read the
// same lists.
//
// Monochromatic and continuous queries (cands == sites; Section 5.1 runs a
// route as one multi-source expansion under d(r,n) = min over route nodes)
// verify every point a probe discovers, once. Edge-resident candidates are
// additionally met as point arrivals when their edge is processed, and
// verified there. Node-resident bichromatic candidates (Section 5.1) need
// no verification at all: the main expansion knows the exact d(n,q) of
// every de-heaped node, so the probe already decides whether n — and the
// candidate residing on it — belongs to the answer region.
//
// mat must have been built over the point set that backs sites (Section
// 5.1: "we simply materialize KNN(n) ⊆ Q"). sites may hide points, e.g. the
// query-co-located one; hidden points are skipped when lists are read — the
// spare K+1-th entry compensates. cands must already exclude a point
// co-located with the query, if the caller wants the usual "newly arrived
// object" semantics (see points.ExcludeNode).
func (s *Searcher) eager(cands, sites PointSet, mono bool, mat *Materialized, sources []Loc, tgt target, k int) (res *Result, err error) {
	var st Stats
	main := s.acquire()
	defer s.releaseMain(&res, main)

	decided := make(map[points.PointID]bool)
	var results []points.PointID
	if mono {
		results = s.confirmAtSources(cands, sources, decided, results)
	}
	if err := s.seedSources(main, sources, cands, sites, false); err != nil {
		return nil, err
	}

	oneWay := s.in != s.g
	var probe, plst, near []PointDist
	// settle decides discovered candidate p, at most ub from the query,
	// once: with the materialized shortcut when there are lists, with a
	// verification otherwise.
	settle := func(p points.PointID, ub graph.Dist) error {
		if decided[p] {
			return nil
		}
		decided[p] = true
		loc, ok := cands.loc(p)
		if !ok {
			return nil
		}
		self := points.NoPoint
		if mono {
			self = p
		}
		var member bool
		var err error
		if mat != nil {
			member, err = s.verifyWithMat(&st, main, sites, self, mat, loc, tgt, k, ub, &plst, &near)
		} else {
			member, err = s.verify(&st, sites, self, loc, tgt, k, ub, nil)
		}
		if member && err == nil {
			results = s.confirm(results, p)
		}
		return err
	}

	for {
		ent, d, ok := main.pop()
		if !ok {
			break
		}
		if ent.isPoint() {
			if err := settle(ent.point(), d); err != nil {
				return execResult(results, st, err)
			}
			continue
		}
		n := ent.node()
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return execResult(results, st, err)
		}
		var err error
		if mat != nil {
			if probe, err = mat.List(n, probe); err != nil {
				return nil, err
			}
			st.MatReads++
			// The visible entries strictly closer to n than the query are
			// exactly what range-NN(n, k, d) would discover; keep those.
			closer := probe[:0]
			for _, e := range probe {
				if len(closer) >= k || e.D >= d {
					break
				}
				if _, visible := sites.loc(e.P); visible {
					closer = append(closer, e)
				}
			}
			probe = closer
		} else if probe, err = s.rangeNN(&st, sites, NodeLoc(n), k, d, probe); err != nil {
			return execResult(results, st, err)
		}
		if mono {
			for _, pd := range probe {
				// d + pd.D upper-bounds the point-to-query distance; the
				// verification reaches the query at its exact distance.
				// With one-way arcs d(n→p) + d(n→q) bounds d(p→q) only
				// for the point on n itself (weights are positive: the
				// one at distance 0), so any other verification runs
				// unbounded: it still stops at the query or at the k-th
				// closer point.
				ub := d + pd.D
				if oneWay && pd.D > 0 {
					ub = graph.Inf
				}
				if err := settle(pd.P, ub); err != nil {
					return execResult(results, st, err)
				}
			}
		}
		if len(probe) >= k {
			continue // Lemma 1: n cannot lead to further results
		}
		if !mono {
			if p, ok := cands.at(n); ok && !decided[p] {
				decided[p] = true
				results = s.confirm(results, p)
			}
		}
		if main.adj, err = s.in.Adjacency(n, main.adj); err != nil {
			return nil, err
		}
		if err := main.pushAdjacentPoints(cands.Edge, setCand, n, d, graph.Inf); err != nil {
			return nil, err
		}
		for _, e := range main.adj {
			main.pushNode(n, e.To, d+e.W)
		}
	}
	return finishResult(results, st), nil
}

// verifyWithMat verifies a candidate at location from using the
// materialized shortcut: its k-th competitor radius is lower-bounded from
// the lists of its anchors — its own node's, or, inside an edge, both
// endpoints' merged with the direct same-edge competitors (Section 5.2:
// "the kNNs of a point p lying on edge n_i n_j can be computed from
// kNN(n_i), kNN(n_j)") — skipping self and hidden points. If the upper
// bound ub on the candidate-to-query distance is within that radius, the
// candidate is a member without expansion; otherwise fall back to a
// verification query. buf lends its adjacency and point buffers.
func (s *Searcher) verifyWithMat(st *Stats, buf *scratch, sites PointSet, self points.PointID, mat *Materialized, from Loc, tgt target, k int, ub graph.Dist, plst, near *[]MatEntry) (bool, error) {
	as, n, err := s.anchors(from, &buf.adj)
	if err != nil {
		return false, err
	}
	*near = slices.Grow((*near)[:0], n*mat.cap)
	floor := graph.Inf
	for _, a := range as[:n] {
		if *plst, err = mat.List(a.node, *plst); err != nil {
			return false, err
		}
		st.MatReads++
		for _, e := range *plst {
			if _, visible := sites.loc(e.P); visible && e.P != self {
				*near = append(*near, MatEntry{P: e.P, D: a.off + e.D})
			}
		}
		if len(*plst) == mat.cap {
			// Truncated list: unseen competitors via this anchor are at
			// least as far as its last entry.
			floor = min(floor, a.off+(*plst)[len(*plst)-1].D)
		}
	}
	if sites.Edge != nil && !from.IsNode() {
		if buf.refs, err = sites.Edge.PointsOn(from.U, from.V, buf.refs); err != nil {
			return false, err
		}
		for _, ref := range buf.refs {
			if ref.ID != self {
				*near = append(*near, MatEntry{P: ref.ID, D: max(ref.Pos, from.Pos) - min(ref.Pos, from.Pos)})
			}
		}
	}
	// The radius is the k-th smallest distance over distinct competitors:
	// in ascending order, the first entry of a point is its best bound.
	slices.SortFunc(*near, func(x, y MatEntry) int { return cmp.Compare(x.D, y.D) })
	rk, distinct := floor, (*near)[:0]
	for _, e := range *near {
		if hasPoint(distinct, e.P) {
			continue
		}
		if distinct = append(distinct, e); len(distinct) == k {
			rk = min(rk, e.D)
			break
		}
	}
	if ub <= rk || rk == graph.Inf {
		// Fewer than k points can be strictly closer to p than the query.
		return true, nil
	}
	return s.verify(st, sites, self, from, tgt, k, ub, nil)
}

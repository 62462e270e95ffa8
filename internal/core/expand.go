package core

import (
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// rangeNN implements range-NN(n, k, e) from Section 3.1 and its
// unrestricted form from Section 5.2: the k nearest data points of sites
// with network distance *strictly smaller* than e from location from,
// appended to out in ascending distance order. Fewer than k points are
// returned when no more exist within the range.
func (s *Searcher) rangeNN(st *Stats, sites PointSet, from Loc, k int, e graph.Dist, out []PointDist) ([]PointDist, error) {
	st.RangeNN++
	out = out[:0]
	if e == 0 || k <= 0 {
		return out, nil
	}
	// Point arrivals are bounded inclusively; the count below e makes that
	// the strict range (a point at distance e exactly is outside it).
	below := e - 1
	sc := s.acquire()
	defer s.release(st, sc)
	if err := sc.seed(s, from); err != nil {
		return out, err
	}
	if err := sc.pushSameEdgePoints(sites.Edge, setSite, from, below); err != nil {
		return out, err
	}
	for {
		ent, d, ok := sc.pop()
		if !ok || d >= e {
			break
		}
		if ent.isPoint() {
			if hasPoint(out, ent.point()) {
				continue // a later arrival of a point already reported
			}
			if out = append(out, PointDist{P: ent.point(), D: d}); len(out) >= k {
				break
			}
			continue
		}
		n := ent.node()
		st.NodesScanned++
		if err := s.checkExecStride(st); err != nil {
			return out, err
		}
		if p, has := sites.at(n); has {
			if out = append(out, PointDist{P: p, D: d}); len(out) >= k {
				break
			}
		}
		var err error
		if sc.adj, err = s.g.Adjacency(n, sc.adj); err != nil {
			return out, err
		}
		if sites.Edge != nil {
			if err := sc.pushAdjacentPoints(sites.Edge, setSite, n, d, below); err != nil {
				return out, err
			}
		}
		for _, edge := range sc.adj {
			if nd := d + edge.W; nd < e {
				sc.pushNode(n, edge.To, nd)
			}
		}
	}
	return out, nil
}

func hasPoint(lst []PointDist, p points.PointID) bool {
	for _, pd := range lst {
		if pd.P == p {
			return true
		}
	}
	return false
}

// KNN returns the k nearest data points of location q in ascending
// distance order — the network-expansion NN search of Section 3.1 that
// underlies every range-NN probe, exposed as a query in its own right.
// Fewer than k results are returned when the reachable component holds
// fewer points.
func (s *Searcher) KNN(ps PointSet, q Loc, k int) ([]PointDist, error) {
	if k < 1 {
		return nil, errKTooSmall(k)
	}
	if err := s.checkLoc(q); err != nil {
		return nil, err
	}
	if ps.Edge != nil {
		if err := s.symmetricOnly("edge-resident point sets"); err != nil {
			return nil, err
		}
	}
	var st Stats
	if err := s.checkExec(&st); err != nil {
		return nil, err
	}
	return s.rangeNN(&st, ps, q, k, graph.Inf, nil)
}

// verify implements verify(p, k, q) from Section 3.1, generalized to serve
// every variant in the package: it expands the network around the candidate
// location from and reports whether the target is met before k points of
// sites are found strictly closer. self is skipped during counting (the
// candidate itself in monochromatic queries; points.NoPoint for bichromatic
// ones). ub bounds the expansion; it must be an upper bound on the
// candidate-to-target distance, or graph.Inf for a brute-force query.
//
// Counting is exact under ties: a site at exactly the candidate-to-target
// distance does not count against membership, regardless of heap pop order.
//
// A non-nil lz makes this the verification of the lazy algorithm (Fig 7):
// every visited node provably closer to the candidate than to the query
// additionally prunes lz's main walk.
func (s *Searcher) verify(st *Stats, sites PointSet, self points.PointID, from Loc, tgt target, k int, ub graph.Dist, lz *lazyPrune) (bool, error) {
	st.Verifications++
	sc := s.acquire()
	defer s.release(st, sc)
	if err := sc.seed(s, from); err != nil {
		return false, err
	}
	if err := sc.pushSameEdgePoints(sites.Edge, setSite, from, ub); err != nil {
		return false, err
	}
	tgt.seedDirect(sc, from, ub)

	strictCount := 0 // sites strictly closer than the current pop distance
	sameCount := 0   // sites at exactly the current pop distance
	var lastDist graph.Dist
	for {
		ent, d, ok := sc.pop()
		if !ok {
			return false, nil // target unreachable within ub
		}
		if ent.isNode() {
			st.NodesScanned++
			if err := s.checkExecStride(st); err != nil {
				return false, err
			}
		}
		if d > lastDist {
			strictCount += sameCount
			sameCount = 0
			lastDist = d
		}
		if strictCount >= k {
			return false, nil
		}
		switch {
		case ent.isTarget():
			return true, nil
		case ent.isPoint():
			if p := ent.point(); p != self && sc.firstArrival(p) {
				sameCount++
			}
		default: // a node
			n := ent.node()
			if tgt.nodeHit(n) {
				return true, nil
			}
			if p, has := sites.at(n); has && p != self {
				sameCount++
			}
			if lz != nil {
				lz.visit(n, d, ub)
			}
			if tgt.via(n) {
				if err := tgt.arrive(s, sc, n, d, ub); err != nil {
					return false, err
				}
			}
			var err error
			if sc.adj, err = s.g.Adjacency(n, sc.adj); err != nil {
				return false, err
			}
			if sites.Edge != nil {
				if err := sc.pushAdjacentPoints(sites.Edge, setSite, n, d, ub); err != nil {
					return false, err
				}
			}
			for _, edge := range sc.adj {
				if nd := d + edge.W; nd <= ub {
					sc.pushNode(n, edge.To, nd)
				}
			}
		}
	}
}

// Distance computes the exact network distance between two locations
// (Section 5.2's distance definition), returning graph.Inf when
// disconnected. Exposed for tooling, examples and tests; the query
// algorithms never need it.
func (s *Searcher) Distance(a, b Loc) (graph.Dist, error) {
	if err := s.checkLoc(a); err != nil {
		return 0, err
	}
	if err := s.checkLoc(b); err != nil {
		return 0, err
	}
	if a == b {
		return 0, nil
	}
	var st Stats
	sc := s.acquire()
	defer s.release(&st, sc)
	if err := sc.seed(s, a); err != nil {
		return 0, err
	}
	tgt := locTarget(b)
	tgt.seedDirect(sc, a, graph.Inf)
	for {
		ent, d, ok := sc.pop()
		if !ok {
			return graph.Inf, nil
		}
		if ent.isTarget() {
			return d, nil
		}
		n := ent.node()
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return 0, err
		}
		if tgt.nodeHit(n) {
			return d, nil
		}
		if tgt.via(n) {
			if err := tgt.arrive(s, sc, n, d, graph.Inf); err != nil {
				return 0, err
			}
		}
		var err error
		if sc.adj, err = s.g.Adjacency(n, sc.adj); err != nil {
			return 0, err
		}
		for _, edge := range sc.adj {
			sc.pushNode(n, edge.To, d+edge.W)
		}
	}
}

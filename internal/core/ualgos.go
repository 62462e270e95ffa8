package core

import (
	"math"
	"sort"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
)

// The algorithms over unrestricted networks (Section 5.2). Monochromatic
// queries use the point set as both candidates and competitors; bichromatic
// queries separate the two (mat, when used, must be built over sites).
// Continuous queries take a route of nodes, as in Section 5.1 (the
// experiments of Fig 19 run them on unrestricted networks).

func nodeLocs(route []graph.NodeID) []Loc {
	out := make([]Loc, len(route))
	for i, n := range route {
		out[i] = NodeLoc(n)
	}
	return out
}

func (s *Searcher) checkUQuery(cands points.EdgeView, sources []Loc, k int, buf *[]graph.Edge) error {
	if k < 1 {
		return errKTooSmall(k)
	}
	if len(sources) == 0 {
		return errEmptySources()
	}
	for _, l := range sources {
		if err := s.checkULoc(l, buf); err != nil {
			return err
		}
	}
	return nil
}

// seedSources seeds a main walk at the query's source locations: their
// endpoint nodes plus, for an edge-resident source, the candidates — and,
// with withSites, the competitors — on the source's own edge at their
// direct distances.
func (w *uWalk) seedSources(s *Searcher, sources []Loc, cands, sites points.EdgeView, withSites bool, adj *[]graph.Edge, refs *[]points.EdgePointRef) error {
	for _, src := range sources {
		if err := w.seedFromLoc(s, src, adj); err != nil {
			return err
		}
		if err := w.pushSameEdgePoints(cands, uSetCand, src, math.Inf(1), refs); err != nil {
			return err
		}
		if withSites {
			if err := w.pushSameEdgePoints(sites, uSetSite, src, math.Inf(1), refs); err != nil {
				return err
			}
		}
	}
	return nil
}

// surfaceEdge pushes the candidates — and, for bichromatic queries, the
// competitors — on edge (n, e.To) as point arrivals and returns the number
// of competitors on the edge.
func (w *uWalk) surfaceEdge(cands, sites points.EdgeView, mono bool, n graph.NodeID, d float64, e graph.Edge, refs *[]points.EdgePointRef) (int, error) {
	count, err := w.pushEdgePoints(cands, uSetCand, n, d, e, math.Inf(1), refs)
	if err != nil || mono {
		return count, err
	}
	return w.pushEdgePoints(sites, uSetSite, n, d, e, math.Inf(1), refs)
}

// uEager is the eager algorithm over unrestricted networks, optionally
// consulting materialized lists (eager-M). The main traversal discovers
// candidate points as first-class heap entries when their edges are
// processed — including the points on the query's own edge, seeded directly
// — which guarantees every potential result is met regardless of how far it
// lies from its edge's endpoints (see DESIGN.md on the discovery scheme).
func (s *Searcher) uEager(cands, sites points.EdgeView, mono bool, mat *Materialized, sources []Loc, target uTargetSpec, k int) (*Result, error) {
	var st Stats
	var adjCheck []graph.Edge
	if err := s.checkUQuery(cands, sources, k, &adjCheck); err != nil {
		return nil, err
	}
	w := s.newUWalk()
	defer s.closeUWalk(&st, w)
	var adj []graph.Edge
	var refs []points.EdgePointRef
	verified := make(map[points.PointID]bool)
	var results []points.PointID

	if err := w.seedSources(s, sources, cands, sites, false, &adj, &refs); err != nil {
		return nil, err
	}

	var probe []PointDist
	var lst, plst []MatEntry
	verifyCandidate := func(p points.PointID, ub float64) error {
		if verified[p] {
			return nil
		}
		verified[p] = true
		self := points.NoPoint
		if mono {
			self = p
		}
		loc, ok := cands.Loc(p)
		if !ok {
			return nil
		}
		var member bool
		var err error
		if mat != nil {
			member, err = s.uVerifyWithMat(&st, sites, self, mat, PointLoc(loc), target, k, ub, &plst, &refs)
		} else {
			member, err = s.uVerify(&st, sites, self, PointLoc(loc), target, k, ub, nil)
		}
		if err != nil {
			return err
		}
		if member {
			results = s.confirm(results, p)
		}
		return nil
	}

	for {
		ent, d, ok := w.pop()
		if !ok {
			break
		}
		switch ent.kind {
		case uKindPoint:
			if err := verifyCandidate(ent.p, d); err != nil {
				return execResult(results, st, err)
			}
		case uKindNode:
			n := ent.node
			st.NodesExpanded++
			if err := s.checkExec(&st); err != nil {
				return execResult(results, st, err)
			}
			closer := 0
			if mat != nil {
				var err error
				lst, err = mat.List(n, lst)
				if err != nil {
					return nil, err
				}
				st.MatReads++
				dStrict := strictBound(d)
				for _, e := range lst {
					if e.D >= dStrict || closer >= k {
						break
					}
					if _, visible := sites.Loc(e.P); !visible {
						continue
					}
					closer++
					if mono {
						if err := verifyCandidate(e.P, d+e.D); err != nil {
							return nil, err
						}
					}
				}
			} else {
				var err error
				probe, err = s.uRangeNN(&st, sites, NodeLoc(n), k, d, probe)
				if err != nil {
					return nil, err
				}
				closer = len(probe)
				if mono {
					for _, pd := range probe {
						if err := verifyCandidate(pd.P, d+pd.D); err != nil {
							return nil, err
						}
					}
				}
			}
			if closer >= k {
				continue // Lemma 1 prune: no node or point pushes
			}
			var err error
			adj, err = s.g.Adjacency(n, adj)
			if err != nil {
				return nil, err
			}
			if err := w.pushAdjacentPoints(cands, uSetCand, n, d, adj, math.Inf(1), &refs); err != nil {
				return nil, err
			}
			for _, edge := range adj {
				w.pushNode(edge.To, d+edge.W)
			}
		}
	}
	return finishResult(results, st), nil
}

// uVerifyWithMat verifies an edge-resident candidate with the materialized
// shortcut: the k-th competitor radius of p is lower-bounded by merging the
// endpoint lists with the direct same-edge competitors (Section 5.2: "the
// kNNs of a point p lying on edge n_i n_j can be computed from kNN(n_i),
// kNN(n_j)"); a full verification runs only when the bound is inconclusive.
func (s *Searcher) uVerifyWithMat(st *Stats, sites points.EdgeView, self points.PointID, mat *Materialized, from Loc, target uTargetSpec, k int, ub float64, plst *[]MatEntry, refs *[]points.EdgePointRef) (bool, error) {
	var adj []graph.Edge
	wEdge, err := s.edgeWeight(from.U, from.V, &adj)
	if err != nil {
		return false, err
	}
	best := make(map[points.PointID]float64)
	consider := func(p points.PointID, d float64) {
		if p == self {
			return
		}
		if old, ok := best[p]; !ok || d < old {
			best[p] = d
		}
	}
	floor := math.Inf(1)
	//lint:ignore vetrnn/execpoll fixed two-iteration endpoint loop inside one verification; the query loop driving it polls
	for side := 0; side < 2; side++ {
		node, off := from.U, from.Pos
		if side == 1 {
			node, off = from.V, wEdge-from.Pos
		}
		*plst, err = mat.List(node, *plst)
		if err != nil {
			return false, err
		}
		st.MatReads++
		for _, e := range *plst {
			if _, ok := sites.Loc(e.P); !ok {
				continue
			}
			consider(e.P, off+e.D)
		}
		if len(*plst) == mat.cap {
			// Truncated list: unseen competitors via this endpoint are at
			// least as far as its last entry.
			if f := off + (*plst)[len(*plst)-1].D; f < floor {
				floor = f
			}
		}
	}
	*refs, err = sites.PointsOn(from.U, from.V, *refs)
	if err != nil {
		return false, err
	}
	for _, ref := range *refs {
		consider(ref.ID, math.Abs(ref.Pos-from.Pos))
	}
	dists := make([]float64, 0, len(best))
	for _, d := range best {
		dists = append(dists, d)
	}
	sort.Float64s(dists)
	rk := math.Inf(1)
	if len(dists) >= k {
		rk = dists[k-1]
	}
	if floor < rk {
		rk = floor
	}
	if upperBound(ub) <= strictBound(rk) || math.IsInf(rk, 1) {
		return true, nil
	}
	return s.uVerify(st, sites, self, from, target, k, ub, nil)
}

// uLazy is the lazy algorithm over unrestricted networks: pruning occurs
// during edge processing (an edge carrying k competitors is not crossed)
// and through the counter side effects of verification expansions, as in
// the restricted case.
func (s *Searcher) uLazy(cands, sites points.EdgeView, mono bool, sources []Loc, target uTargetSpec, k int) (*Result, error) {
	var st Stats
	var adjCheck []graph.Edge
	if err := s.checkUQuery(cands, sources, k, &adjCheck); err != nil {
		return nil, err
	}
	w := s.newUWalk()
	defer s.closeUWalk(&st, w)
	counts := s.acquireCounts()
	defer s.releaseCounts(counts)
	lz := &lazyPrune[uEntry]{sc: w.sc, heap: &w.heap, counts: counts,
		children: make(map[graph.NodeID][]pq.Handle)}

	var adj []graph.Edge
	var refs []points.EdgePointRef
	verified := make(map[points.PointID]bool)
	classified := make(map[points.PointID]bool)
	var results []points.PointID

	if err := w.seedSources(s, sources, cands, sites, !mono, &adj, &refs); err != nil {
		return nil, err
	}

	for {
		ent, d, ok := w.pop()
		if !ok {
			break
		}
		switch ent.kind {
		case uKindPoint:
			if mono || ent.set == uSetSite {
				p := ent.p
				if !verified[p] {
					verified[p] = true
					loc, ok := sites.Loc(p)
					if ok {
						member, err := s.uVerify(&st, sites, p, PointLoc(loc), target, k, d, lz)
						if err != nil {
							return execResult(results, st, err)
						}
						if mono && member {
							results = s.confirm(results, p)
						}
					}
				}
			} else {
				p := ent.p
				if !classified[p] {
					classified[p] = true
					loc, ok := cands.Loc(p)
					if ok {
						member, err := s.uVerify(&st, sites, points.NoPoint, PointLoc(loc), target, k, d, nil)
						if err != nil {
							return execResult(results, st, err)
						}
						if member {
							results = s.confirm(results, p)
						}
					}
				}
			}
		case uKindNode:
			n := ent.node
			st.NodesExpanded++
			if err := s.checkExec(&st); err != nil {
				return execResult(results, st, err)
			}
			if counts.get(n) >= int32(k) {
				continue
			}
			var err error
			adj, err = s.g.Adjacency(n, adj)
			if err != nil {
				return nil, err
			}
			first := len(lz.kids)
			for _, edge := range adj {
				siteCount, err := w.surfaceEdge(cands, sites, mono, n, d, edge, &refs)
				if err != nil {
					return nil, err
				}
				// Edge-crossing rule (Section 5.2): entering edge.To via
				// this edge passes all its competitors; with k of them the
				// far endpoint cannot lead to results along this path.
				if siteCount >= k {
					continue
				}
				if h := w.pushNode(edge.To, d+edge.W); h != 0 {
					lz.kids = append(lz.kids, h)
				}
			}
			if len(lz.kids) > first {
				lz.children[n] = lz.kids[first:]
			}
		}
	}
	return finishResult(results, st), nil
}

// uLazyEP is lazy-EP over unrestricted networks: the second heap expands
// around discovered competitors from both endpoints of their edges and
// marks dominated nodes, replacing counter-based pruning.
func (s *Searcher) uLazyEP(cands, sites points.EdgeView, mono bool, sources []Loc, target uTargetSpec, k int) (*Result, error) {
	var st Stats
	var adjCheck []graph.Edge
	if err := s.checkUQuery(cands, sources, k, &adjCheck); err != nil {
		return nil, err
	}
	w := s.newUWalk()
	defer s.closeUWalk(&st, w)

	ep := &epMarks{found: make(map[graph.NodeID][]PointDist)}
	var adj []graph.Edge
	var refs []points.EdgePointRef
	seedHP := func(p points.PointID) error {
		loc, ok := sites.Loc(p)
		if !ok {
			return nil
		}
		wEdge, err := s.edgeWeight(loc.U, loc.V, &adj)
		if err != nil {
			return err
		}
		ep.hp.Push(matHeapEntry{loc.U, p}, loc.Pos)
		ep.hp.Push(matHeapEntry{loc.V, p}, wEdge-loc.Pos)
		return nil
	}

	verified := make(map[points.PointID]bool)
	classified := make(map[points.PointID]bool)
	var results []points.PointID

	if err := w.seedSources(s, sources, cands, sites, !mono, &adj, &refs); err != nil {
		return nil, err
	}

	for {
		if _, top, ok := w.heap.Peek(); ok {
			if err := s.advance(&st, ep, top, k); err != nil {
				return execResult(results, st, err)
			}
		}
		ent, d, ok := w.pop()
		if !ok {
			break
		}
		switch ent.kind {
		case uKindPoint:
			if mono || ent.set == uSetSite {
				p := ent.p
				if !verified[p] {
					verified[p] = true
					if err := seedHP(p); err != nil {
						return nil, err
					}
					if mono {
						loc, ok := cands.Loc(p)
						if ok {
							member, err := s.epClassify(&st, ep.found, sites, p, p, loc, target, k, d, &adj)
							if err != nil {
								return execResult(results, st, err)
							}
							if member {
								results = s.confirm(results, p)
							}
						}
					}
				}
			} else {
				p := ent.p
				if !classified[p] {
					classified[p] = true
					loc, ok := cands.Loc(p)
					if ok {
						member, err := s.epClassify(&st, ep.found, sites, points.NoPoint, p, loc, target, k, d, &adj)
						if err != nil {
							return execResult(results, st, err)
						}
						if member {
							results = s.confirm(results, p)
						}
					}
				}
			}
		case uKindNode:
			n := ent.node
			st.NodesExpanded++
			if err := s.checkExec(&st); err != nil {
				return execResult(results, st, err)
			}
			lst := ep.found[n]
			if len(lst) >= k && lst[k-1].D < strictBound(d) {
				continue // dominated by k discovered competitors
			}
			var err error
			adj, err = s.g.Adjacency(n, adj)
			if err != nil {
				return nil, err
			}
			for _, edge := range adj {
				siteCount, err := w.surfaceEdge(cands, sites, mono, n, d, edge, &refs)
				if err != nil {
					return nil, err
				}
				if siteCount >= k {
					continue // edge-crossing rule, as in uLazy
				}
				w.pushNode(edge.To, d+edge.W)
			}
		}
	}
	ep.harvest(&st)
	return finishResult(results, st), nil
}

// epClassify decides membership of a discovered candidate in lazy-EP,
// first trying to reject it from the H' marks of its edge's endpoints: a
// competitor recorded at distance D from endpoint a bounds its distance to
// the candidate by D + dL(a, p). The candidate's pop distance ub equals
// d(p, target) exactly whenever p is a true member (its discovery path is
// never pruned), so counting k distinct competitors with bounds strictly
// below ub can only reject non-members — this is how lazy-EP issues fewer
// verification queries (Section 4.2). Inconclusive candidates fall back to
// a verification query.
func (s *Searcher) epClassify(st *Stats, found map[graph.NodeID][]PointDist, sites points.EdgeView, self, p points.PointID, loc points.EdgePoint, target uTargetSpec, k int, ub float64, adj *[]graph.Edge) (bool, error) {
	w, err := s.edgeWeight(loc.U, loc.V, adj)
	if err != nil {
		return false, err
	}
	ubStrict := strictBound(ub)
	closer := 0
	var counted map[points.PointID]bool
	for side := 0; side < 2; side++ {
		node, off := loc.U, loc.Pos
		if side == 1 {
			node, off = loc.V, w-loc.Pos
		}
		for _, f := range found[node] {
			if f.P == p || counted[f.P] {
				continue
			}
			if f.D+off < ubStrict {
				if counted == nil {
					counted = make(map[points.PointID]bool, k)
				}
				counted[f.P] = true
				closer++
				if closer >= k {
					return false, nil
				}
			}
		}
	}
	return s.uVerify(st, sites, self, PointLoc(loc), target, k, ub, nil)
}

// uBrute verifies every candidate with an unbounded expansion.
func (s *Searcher) uBrute(cands, sites points.EdgeView, mono bool, target uTargetSpec, k int) (*Result, error) {
	var st Stats
	if k < 1 {
		return nil, errKTooSmall(k)
	}
	var results []points.PointID
	for _, p := range cands.Points() {
		// One candidate's verification is one expansion step of the
		// brute-force strategy.
		if err := s.checkExec(&st); err != nil {
			return execResult(results, st, err)
		}
		loc, ok := cands.Loc(p)
		if !ok {
			continue
		}
		self := points.NoPoint
		if mono {
			self = p
		}
		member, err := s.uVerify(&st, sites, self, PointLoc(loc), target, k, math.Inf(1), nil)
		if err != nil {
			return execResult(results, st, err)
		}
		if member {
			results = s.confirm(results, p)
		}
	}
	return finishResult(results, st), nil
}

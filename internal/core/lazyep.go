package core

import (
	"slices"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
)

// epMarks is the second heap H' of lazy-EP (Section 4.2) with the marks it
// leaves behind: it expands the network around every discovered competitor
// in parallel with the main expansion (interleaved by distance), recording
// for node n the up-to-k nearest discovered competitors in canonical order
// ("the kNN of each node found so far"). Like the main walk it follows
// in-arcs: a mark is d(n→x), the distance Lemma 1 compares with d(n→q).
//
// The state is pooled like lazyCounts, so a query allocates none of it: a
// marked node owns one block of the arena, found through an epoch-stamped
// (offset, count), and the per-point marks are maps cleared between
// queries.
type epMarks struct {
	nodes []epNode
	epoch uint32
	// arena holds one block of block entries per marked node: min(k,
	// visible sites), all a list can ever hold — never k, which a caller
	// may set far above the number of points.
	arena []PointDist
	block int
	// seeded are the sites expanding in H', classified the candidates
	// decided.
	seeded, classified map[points.PointID]bool
	hp                 pq.Heap[matHeapEntry]
	adj                []graph.Edge
}

// epNode locates node n's marks: arena[off:off+n] while stamp is the
// query's epoch.
type epNode struct{ stamp, off, n uint32 }

// reset readies the marks for a query over numNodes nodes and lists of at
// most block entries.
func (ep *epMarks) reset(numNodes, block int) {
	if len(ep.nodes) != numNodes {
		*ep = epMarks{
			nodes:      make([]epNode, numNodes),
			seeded:     make(map[points.PointID]bool),
			classified: make(map[points.PointID]bool),
		}
	}
	if ep.epoch++; ep.epoch == 0 { // epoch wrapped: wipe stamps and restart
		clear(ep.nodes)
		ep.epoch = 1
	}
	ep.arena, ep.block = ep.arena[:0], block
	clear(ep.seeded)
	clear(ep.classified)
	ep.hp.Reset()
	ep.hp.PushCount, ep.hp.PopCount = 0, 0
}

// found returns node n's marks.
func (ep *epMarks) found(n graph.NodeID) []PointDist {
	m := ep.nodes[n]
	if m.stamp != ep.epoch {
		return nil
	}
	return ep.arena[m.off : m.off+m.n]
}

// accept offers competitor p at distance d to node n's marks, in place in
// n's block, and reports whether they changed.
func (ep *epMarks) accept(n graph.NodeID, p points.PointID, d graph.Dist) bool {
	m := &ep.nodes[n]
	if m.stamp != ep.epoch {
		*m = epNode{stamp: ep.epoch, off: uint32(len(ep.arena))}
		ep.arena = append(ep.arena, make([]PointDist, ep.block)...)
	}
	end := int(m.off) + ep.block
	changed, lst := matAccept(ep.arena[m.off:m.off+m.n:end], p, d, ep.block)
	m.n = uint32(len(lst))
	return changed
}

// advance drains H' entries strictly below limit. The paper interleaves on
// "top of H' < last de-heaped distance of H"; draining against the distance
// of the *next* main pop is equivalent in cost order and guarantees every
// mark below the pop distance is in place before the pop's pruning check.
func (s *Searcher) advance(st *Stats, ep *epMarks, limit graph.Dist, k int) error {
	for {
		_, top, ok := ep.hp.Peek()
		if !ok || top >= float64(limit) {
			return nil
		}
		e, key, _ := ep.hp.Pop()
		d := graph.Dist(key)
		st.NodesScanned++
		if err := s.checkExecStride(st); err != nil {
			return err
		}
		if !ep.accept(e.node, e.p, d) {
			continue // a later (no closer) pop of a marked point, or no better than the k-th mark
		}
		var err error
		ep.adj, err = s.in.Adjacency(e.node, ep.adj)
		if err != nil {
			return err
		}
		for _, edge := range ep.adj {
			nd := d + edge.W
			if tgt := ep.found(edge.To); len(tgt) == k && !entryLess(nd, e.p, tgt[k-1].D, tgt[k-1].P) {
				continue // cannot improve the neighbour's list
			}
			ep.hp.Push(matHeapEntry{edge.To, e.p}, float64(nd))
		}
	}
}

// releaseMarks returns ep to the pool once lazy-EP's query returns, adding
// the heap traffic of H' to the returned result's Stats (a partial one
// included), as releaseMain does for the main walk's.
func (s *Searcher) releaseMarks(res **Result, ep *epMarks) {
	if *res != nil {
		(*res).Stats.HeapPushes += int64(ep.hp.PushCount)
		(*res).Stats.HeapPops += int64(ep.hp.PopCount)
	}
	s.pools.ep.Put(ep)
}

// seed starts expanding H' around discovered competitor p at loc, from
// every anchor.
func (ep *epMarks) seed(s *Searcher, p points.PointID, loc Loc) error {
	as, n, err := s.anchors(loc, &ep.adj)
	if err != nil {
		return err
	}
	for _, a := range as[:n] {
		ep.hp.Push(matHeapEntry{a.node, p}, float64(a.off))
	}
	return nil
}

// lazyEP is lazy-EP (Section 4.2), over either residency (Section 5.2):
// lazy evaluation with extended pruning. A node found closer to k
// discovered competitors than to the query (by the H' marks) is pruned
// without a verification query, and a candidate whose anchors' marks
// already show k closer competitors is rejected without one (epClassify).
// Surviving candidates are decided by a verification (monochromatic) or
// classified like lazy's (bichromatic).
func (s *Searcher) lazyEP(cands, sites PointSet, mono bool, sources []Loc, tgt target, k int) (res *Result, err error) {
	var st Stats
	main := s.acquire()
	defer s.releaseMain(&res, main)
	ep := s.pools.ep.Get().(*epMarks)
	defer s.releaseMarks(&res, ep)
	ep.reset(s.g.NumNodes(), min(k, sites.len()))
	seeded, classified := ep.seeded, ep.classified
	var results []points.PointID
	if mono {
		results = s.confirmAtSources(cands, sources, classified, results)
		for _, p := range results {
			seeded[p] = true
			loc, _ := cands.loc(p)
			if err := ep.seed(s, p, loc); err != nil {
				return nil, err
			}
		}
	}
	if err := s.seedSources(main, sources, cands, sites, !mono); err != nil {
		return nil, err
	}

	var probe []PointDist
	// meet handles data point p reached at loc, d away from the query, as
	// a candidate, a competitor, or — monochromatic — both.
	meet := func(p points.PointID, loc Loc, d graph.Dist, cand, site bool) error {
		if cand && !classified[p] {
			classified[p] = true
			member, err := s.epClassify(&st, ep, sites, mono, p, loc, tgt, k, d, &probe)
			if err != nil {
				return err
			}
			if member {
				results = s.confirm(results, p)
			}
		}
		if site && !seeded[p] {
			seeded[p] = true
			return ep.seed(s, p, loc)
		}
		return nil
	}

	for {
		if _, top, ok := main.queue.Peek(); ok {
			if err := s.advance(&st, ep, graph.Dist(top), k); err != nil {
				return execResult(results, st, err)
			}
		}
		ent, d, ok := main.pop()
		if !ok {
			break
		}
		if ent.isPoint() {
			if loc, site, ok := arrival(ent, cands, sites, mono); ok {
				if err := meet(ent.point(), loc, d, mono || !site, site); err != nil {
					return execResult(results, st, err)
				}
			}
			continue
		}
		n := ent.node()
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return execResult(results, st, err)
		}
		lst := ep.found(n)
		pruned := len(lst) >= k && lst[k-1].D < d
		if p, ok := cands.at(n); ok {
			if err := meet(p, NodeLoc(n), d, true, mono); err != nil {
				return execResult(results, st, err)
			}
		}
		if p, ok := sites.at(n); ok && !mono {
			if err := meet(p, NodeLoc(n), d, false, true); err != nil {
				return execResult(results, st, err)
			}
		}
		if pruned {
			continue // Lemma 1 via the H' marks: no expansion
		}
		var err error
		if main.adj, err = s.in.Adjacency(n, main.adj); err != nil {
			return nil, err
		}
		for _, e := range main.adj {
			siteCount, err := main.surfaceEdge(cands, sites, mono, n, d, e)
			if err != nil {
				return nil, err
			}
			if siteCount >= k {
				continue // edge-crossing rule, as in lazy
			}
			main.pushNode(n, e.To, d+e.W)
		}
	}
	return finishResult(results, st), nil
}

// epClassify decides membership of candidate p met at loc in lazy-EP,
// first trying to reject it from the H' marks of its anchors: a competitor
// recorded at distance D from anchor a bounds its distance to the candidate
// by D + a.off. The candidate's pop distance ub equals d(p, target)
// exactly whenever p is a true member (its discovery path is never pruned),
// so counting k distinct competitors with bounds strictly below ub can only
// reject non-members — this is how lazy-EP issues fewer verification
// queries (Section 4.2). Inconclusive candidates fall back to a
// verification (monochromatic) or to classify (bichromatic).
func (s *Searcher) epClassify(st *Stats, ep *epMarks, sites PointSet, mono bool, p points.PointID, loc Loc, tgt target, k int, ub graph.Dist, probe *[]PointDist) (bool, error) {
	as, n, err := s.anchors(loc, &ep.adj)
	if err != nil {
		return false, err
	}
	self := points.NoPoint
	if mono {
		self = p
	}
	closer := 0
	for i, a := range as[:n] {
		for _, f := range ep.found(a.node) {
			if f.P == self || f.D+a.off >= ub {
				continue
			}
			// A competitor marked at both anchors counts once.
			if i == 1 && slices.ContainsFunc(ep.found(as[0].node), func(g PointDist) bool {
				return g.P == f.P && g.D+as[0].off < ub
			}) {
				continue
			}
			if closer++; closer >= k {
				return false, nil
			}
		}
	}
	if mono {
		return s.verify(st, sites, self, loc, tgt, k, ub, nil)
	}
	return s.classify(st, sites, loc, tgt, k, ub, probe)
}

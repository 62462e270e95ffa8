package core

import (
	"math"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
)

// lazyCounts is the per-node visit counter of the lazy algorithm (Fig 7),
// epoch-stamped so queries do not pay O(|V|) initialization.
type lazyCounts struct {
	val   []int32
	stamp []uint32
	epoch uint32
}

func (c *lazyCounts) reset(n int) {
	if len(c.val) != n {
		c.val = make([]int32, n)
		c.stamp = make([]uint32, n)
		c.epoch = 0
	}
	c.epoch++
	if c.epoch == 0 {
		for i := range c.stamp {
			c.stamp[i] = 0
		}
		c.epoch = 1
	}
}

func (c *lazyCounts) get(n graph.NodeID) int32 {
	if c.stamp[n] != c.epoch {
		return 0
	}
	return c.val[n]
}

func (c *lazyCounts) add(n graph.NodeID) int32 {
	if c.stamp[n] != c.epoch {
		c.stamp[n] = c.epoch
		c.val[n] = 0
	}
	c.val[n]++
	return c.val[n]
}

// lazyPrune is the main-walk state a lazy verification expansion prunes as
// a side effect (Section 3.3): the walk's node labels and heap, the
// per-node counters, and the hash table of Fig 6 mapping an expanded node
// to the heap entries it generated.
type lazyPrune struct {
	sc       *scratch
	counts   *lazyCounts
	children map[graph.NodeID][]pq.Handle
	// kids backs every children list: one growing array per query instead
	// of one small slice per expanded node (a list keeps pointing into the
	// array it was cut from when a later append moves the rest).
	kids []pq.Handle
}

// visit applies the pruning side effect of a verification expansion that
// met node m at distance dm from a point at most e away from the query
// (Fig 7, lines 9-12). For a node the main walk has already de-heaped the
// two exact distances are compared; for any other node dm < e <= d(m,q)
// holds because the main walk pops in ascending distance order. A qualifying node's counter is incremented; visit reports
// whether it thereby reached k on an expanded node, whose heap entries the
// caller then removes with unqueue (kept apart so that visit inlines into
// the verification loop).
func (lz *lazyPrune) visit(m graph.NodeID, dm, e float64, k int) bool {
	closed := lz.sc.isClosed(m)
	if closed {
		e = lz.sc.dist[m]
	}
	return dm < e && lz.counts.add(m) == int32(k) && closed
}

// unqueue removes the heap entries expanded node m generated.
func (lz *lazyPrune) unqueue(m graph.NodeID) {
	for _, h := range lz.children[m] {
		lz.sc.heap.Remove(h)
	}
	delete(lz.children, m)
}

// classify decides a bichromatic candidate met at loc, d away from the
// query. On its node the walk's d is d(n,q), so one exact range count —
// fewer than k sites strictly closer — settles it; an arrival along an edge
// only bounds the distance from above and takes a verification.
func (s *Searcher) classify(st *Stats, sites PointSet, loc Loc, tgt target, k int, d float64, probe *[]PointDist) (bool, error) {
	if !loc.IsNode() {
		return s.verify(st, sites, points.NoPoint, loc, tgt, k, d, nil)
	}
	var err error
	*probe, err = s.rangeNN(st, sites, loc, k, d, *probe)
	return len(*probe) < k, err
}

// arrival resolves a point arrival of a main walk that surfaces both sets:
// whether it is a competitor (site; in a monochromatic walk every point is)
// and where the point lies. ok is false for a point its set hides.
func arrival(ent entry, cands, sites PointSet, mono bool) (loc Loc, site, ok bool) {
	if site = mono || ent.set == setSite; site {
		loc, ok = sites.loc(ent.point())
	} else {
		loc, ok = cands.loc(ent.point())
	}
	return loc, site, ok
}

// surfaceEdge pushes the edge-resident candidates — and, for bichromatic
// queries, the competitors — on edge (n, e.To) as point arrivals and
// returns the number of competitors on the edge.
func (sc *scratch) surfaceEdge(cands, sites PointSet, mono bool, n graph.NodeID, d float64, e graph.Edge) (int, error) {
	count, err := sc.pushEdgePoints(cands.Edge, setCand, n, d, e, math.Inf(1))
	if err != nil || mono {
		return count, err
	}
	return sc.pushEdgePoints(sites.Edge, setSite, n, d, e, math.Inf(1))
}

// lazy is the lazy algorithm of Section 3.3, over either residency
// (Section 5.2). The expansion from the query is pruned only when
// competitors are discovered: the verification query of a discovered point
// visits the nodes within its query distance, and every visited node
// provably closer to the point than to the query has its counter
// incremented (lazyPrune.visit); a node whose counter reaches k is closer
// to k competitors than to the query and, by Lemma 1, is skipped (if still
// queued) or has the heap entries it generated removed. Edge-resident
// competitors also prune during edge processing: an edge carrying k of
// them is not crossed.
//
// Monochromatic queries (cands == sites) take the verification's verdict as
// the point's membership. Bichromatic ones run site verifications purely
// for their pruning side effects and classify each candidate the walk
// still reaches (classify).
func (s *Searcher) lazy(cands, sites PointSet, mono bool, sources []Loc, tgt target, k int) (*Result, error) {
	var st Stats
	main := s.acquire()
	defer s.release(&st, main)
	counts := s.acquireCounts()
	defer s.releaseCounts(counts)
	lz := &lazyPrune{sc: main, counts: counts, children: make(map[graph.NodeID][]pq.Handle)}

	verified := make(map[points.PointID]bool)   // sites
	classified := make(map[points.PointID]bool) // bichromatic candidates
	var results []points.PointID
	if mono {
		results = s.confirmAtSources(cands, sources, verified, results)
	}
	if err := s.seedSources(main, sources, cands, sites, !mono); err != nil {
		return nil, err
	}

	var probe []PointDist
	// meet handles data point p reached at loc, d away from the query: a
	// competitor is verified once, for the pruning (and, monochromatic, the
	// verdict); a bichromatic candidate is classified once.
	meet := func(p points.PointID, loc Loc, d float64, site bool) error {
		seen := classified
		if site {
			seen = verified
		}
		if seen[p] {
			return nil
		}
		seen[p] = true
		var member bool
		var err error
		if site {
			member, err = s.verify(&st, sites, p, loc, tgt, k, d, lz)
			member = member && mono
		} else {
			member, err = s.classify(&st, sites, loc, tgt, k, d, &probe)
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
		if ent.kind == kindPoint {
			if loc, site, ok := arrival(ent, cands, sites, mono); ok {
				if err := meet(ent.point(), loc, d, site); err != nil {
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
		if counts.get(n) >= int32(k) {
			// Lemma 1: n is closer to k competitors than to the query;
			// neither examined nor expanded.
			continue
		}
		if p, ok := sites.at(n); ok {
			if err := meet(p, NodeLoc(n), d, true); err != nil {
				return execResult(results, st, err)
			}
		}
		if p, ok := cands.at(n); ok && !mono {
			if err := meet(p, NodeLoc(n), d, false); err != nil {
				return execResult(results, st, err)
			}
		}
		// The verification of n's own point counts n itself (distance 0),
		// so for k=1 a point-bearing node stops the expansion here — the
		// behaviour Section 3.3 describes for single RNN retrieval.
		if counts.get(n) >= int32(k) {
			continue
		}
		var err error
		if main.adj, err = s.g.Adjacency(n, main.adj); err != nil {
			return nil, err
		}
		first := len(lz.kids)
		for _, e := range main.adj {
			siteCount, err := main.surfaceEdge(cands, sites, mono, n, d, e)
			if err != nil {
				return nil, err
			}
			// Edge-crossing rule (Section 5.2): entering e.To via this edge
			// passes all its competitors; with k of them the far endpoint
			// cannot lead to results along this path.
			if siteCount >= k {
				continue
			}
			if h := main.pushNode(e.To, d+e.W); h != 0 {
				lz.kids = append(lz.kids, h)
			}
		}
		if len(lz.kids) > first {
			lz.children[n] = lz.kids[first:]
		}
	}
	return finishResult(results, st), nil
}

package core

import (
	"math"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// lazyCounts is the per-node visit counter of the lazy algorithm (Fig 7),
// epoch-stamped so queries do not pay O(|V|) initialization, with the
// query's k. A counter counts distinct competitors, so it never passes the
// int32 range, and k is clamped to it rather than wrapped.
type lazyCounts struct {
	val   []int32
	stamp []uint32
	epoch uint32
	k     int32
}

func (c *lazyCounts) reset(n, k int) {
	c.k = int32(min(k, math.MaxInt32))
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

func (c *lazyCounts) add(n graph.NodeID) {
	if c.stamp[n] != c.epoch {
		c.stamp[n] = c.epoch
		c.val[n] = 0
	}
	c.val[n]++
}

// atK reports whether n's counter has reached k: n is closer to k
// competitors than to the query.
func (c *lazyCounts) atK(n graph.NodeID) bool { return c.get(n) >= c.k }

// lazyPrune is the main-walk state a lazy verification expansion prunes as
// a side effect (Section 3.3): the walk's node labels and the per-node
// counters. The counters also stand in for Fig 6's hash table, which maps
// an expanded node to the heap entries it generated so that they can be
// removed once its counter reaches k. The same fact is kept the other way
// round: every node entry names its generator (entry.gen), and the walk's
// pop drops an entry whose generator's counter has reached k
// (scratch.pop). The rule is the same. A counter reaching k removes
// entries only when its node was expanded; counters only rise; and a node
// whose counter reached k before its pop is not expanded, so it generates
// nothing. An entry is therefore removed before it surfaces exactly when
// its generator is at k when it surfaces.
type lazyPrune struct {
	sc     *scratch
	counts *lazyCounts
}

// visit applies the pruning side effect of a verification expansion that
// met node m at distance dm from a point at most e away from the query
// (Fig 7, lines 9-12). For a node the main walk has already de-heaped the
// two exact distances are compared; for any other node dm < e <= d(m,q)
// holds because the main walk pops in ascending distance order. A
// qualifying node's counter is incremented.
func (lz *lazyPrune) visit(m graph.NodeID, dm, e graph.Dist) {
	if lz.sc.isClosed(m) {
		e = lz.sc.dist[m]
	}
	if dm < e {
		lz.counts.add(m)
	}
}

// classify decides a bichromatic candidate met at loc, d away from the
// query. On its node the walk's d is d(n,q), so one exact range count —
// fewer than k sites strictly closer — settles it; an arrival along an edge
// only bounds the distance from above and takes a verification.
func (s *Searcher) classify(st *Stats, sites PointSet, loc Loc, tgt target, k int, d graph.Dist, probe *[]PointDist) (bool, error) {
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
	if site = mono || ent.gen == setSite; site {
		loc, ok = sites.loc(ent.point())
	} else {
		loc, ok = cands.loc(ent.point())
	}
	return loc, site, ok
}

// surfaceEdge pushes the edge-resident candidates — and, for bichromatic
// queries, the competitors — on edge (n, e.To) as point arrivals and
// returns the number of competitors on the edge.
func (sc *scratch) surfaceEdge(cands, sites PointSet, mono bool, n graph.NodeID, d graph.Dist, e graph.Edge) (int, error) {
	count, err := sc.pushEdgePoints(cands.Edge, setCand, n, d, e, graph.Inf)
	if err != nil || mono {
		return count, err
	}
	return sc.pushEdgePoints(sites.Edge, setSite, n, d, e, graph.Inf)
}

// lazy is the lazy algorithm of Section 3.3, over either residency
// (Section 5.2). The expansion from the query is pruned only when
// competitors are discovered: the verification query of a discovered point
// visits the nodes within its query distance, and every visited node
// provably closer to the point than to the query has its counter
// incremented (lazyPrune.visit); a node whose counter reaches k is closer
// to k competitors than to the query and, by Lemma 1, is skipped (if still
// queued) or has the queue entries it generated dropped. Edge-resident
// competitors also prune during edge processing: an edge carrying k of
// them is not crossed.
//
// Monochromatic queries (cands == sites) take the verification's verdict as
// the point's membership. Bichromatic ones run site verifications purely
// for their pruning side effects and classify each candidate the walk
// still reaches (classify).
func (s *Searcher) lazy(cands, sites PointSet, mono bool, sources []Loc, tgt target, k int) (res *Result, err error) {
	var st Stats
	main := s.acquire()
	defer s.releaseMain(&res, main)
	counts := s.acquireCounts(k)
	defer s.releaseCounts(counts)
	lz := &lazyPrune{sc: main, counts: counts}
	main.gens = counts

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
	meet := func(p points.PointID, loc Loc, d graph.Dist, site bool) error {
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
		if ent.isPoint() {
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
		if counts.atK(n) {
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
		if counts.atK(n) {
			continue
		}
		var err error
		if main.adj, err = s.g.Adjacency(n, main.adj); err != nil {
			return nil, err
		}
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
			main.pushNode(n, e.To, d+e.W)
		}
	}
	return finishResult(results, st), nil
}

package core

import (
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
// to the heap entries it generated. E is the walk's heap entry type, which
// is all that differs between the restricted and unrestricted walks.
type lazyPrune[E any] struct {
	sc       *scratch
	heap     *pq.Heap[E]
	counts   *lazyCounts
	children map[graph.NodeID][]pq.Handle
	// kids backs every children list: one growing array per query instead
	// of one small slice per expanded node (a list keeps pointing into the
	// array it was cut from when a later append moves the rest).
	kids []pq.Handle
}

// visit applies the pruning side effect of a verification expansion that
// met node m at distance dm from a point at most e (eStrict = strictBound(e))
// away from the query (Fig 7, lines 9-12). For a node the main walk has
// already de-heaped the two exact distances are compared; for any other
// node dm < e <= d(m,q) holds because the main walk pops in ascending
// distance order. A qualifying node's counter is incremented; visit reports
// whether it thereby reached k on an expanded node, whose heap entries the
// caller then removes with unqueue (kept apart so that visit inlines into
// the verification loops).
func (lz *lazyPrune[E]) visit(m graph.NodeID, dm, eStrict float64, k int) bool {
	closed := lz.sc.isClosed(m)
	if closed {
		eStrict = strictBound(lz.sc.dist[m])
	}
	return dm < eStrict && lz.counts.add(m) == int32(k) && closed
}

// unqueue removes the heap entries expanded node m generated.
func (lz *lazyPrune[E]) unqueue(m graph.NodeID) {
	for _, h := range lz.children[m] {
		lz.heap.Remove(h)
	}
	delete(lz.children, m)
}

// lazy is the lazy algorithm of Section 3.3. The expansion from the query
// is pruned only when competitors are discovered: the verification query of
// a discovered point visits the nodes within its query distance, and every
// visited node provably closer to the point than to the query has its
// counter incremented (lazyPrune.visit); a node whose counter reaches k is
// closer to k competitors than to the query and, by Lemma 1, is skipped (if
// still queued) or has the heap entries it generated removed.
//
// Monochromatic queries (cands == sites) take the verification's verdict as
// the point's membership. Bichromatic ones run site verifications purely
// for their pruning side effects and classify each candidate-bearing node
// that survives with one exact range count.
func (s *Searcher) lazy(cands, sites points.NodeView, mono bool, sources []graph.NodeID, target nodeTarget, k int) (*Result, error) {
	var st Stats
	main := s.acquire()
	defer func() { s.harvest(&st, main); s.release(main) }()
	main.begin()
	counts := s.acquireCounts()
	defer s.releaseCounts(counts)
	lz := &lazyPrune[graph.NodeID]{sc: main, heap: &main.heap, counts: counts,
		children: make(map[graph.NodeID][]pq.Handle)}

	verified := make(map[points.PointID]bool)   // sites
	classified := make(map[points.PointID]bool) // bichromatic candidates
	var results []points.PointID
	for _, src := range sources {
		if mono {
			if p, ok := cands.PointAt(src); ok && !verified[p] {
				verified[p] = true
				results = s.confirm(results, p)
			}
		}
		main.push(src, 0)
	}

	var probe []PointDist
	for {
		n, d, ok := main.pop()
		if !ok {
			break
		}
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return execResult(results, st, err)
		}
		if counts.get(n) >= int32(k) {
			// Lemma 1: n is closer to k competitors than to the query;
			// neither examined nor expanded.
			continue
		}
		if p, ok := sites.PointAt(n); ok && !verified[p] {
			verified[p] = true
			member, err := s.verify(&st, sites, p, n, target, k, d, lz)
			if err != nil {
				return execResult(results, st, err)
			}
			if mono && member {
				results = s.confirm(results, p)
			}
		}
		if !mono {
			if p, ok := cands.PointAt(n); ok && !classified[p] {
				classified[p] = true
				// Exact classification: fewer than k sites strictly
				// closer than d(n,q).
				var err error
				probe, err = s.rangeNN(&st, sites, n, k, d, probe)
				if err != nil {
					return execResult(results, st, err)
				}
				if len(probe) < k {
					results = s.confirm(results, p)
				}
			}
		}
		// The verification of n's own point counts n itself (distance 0),
		// so for k=1 a point-bearing node stops the expansion here — the
		// behaviour Section 3.3 describes for single RNN retrieval.
		if counts.get(n) >= int32(k) {
			continue
		}
		var adjErr error
		if main.adj, adjErr = s.g.Adjacency(n, main.adj); adjErr != nil {
			return nil, adjErr
		}
		first := len(lz.kids)
		for _, e := range main.adj {
			if h := main.push(e.To, d+e.W); h != 0 {
				lz.kids = append(lz.kids, h)
			}
		}
		if len(lz.kids) > first {
			lz.children[n] = lz.kids[first:]
		}
	}
	return finishResult(results, st), nil
}

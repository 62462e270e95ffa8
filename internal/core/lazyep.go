package core

import (
	"sort"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
)

// epMarks is the second heap H' of lazy-EP (Section 4.2) with the marks it
// leaves behind: it expands the network around every discovered competitor
// in parallel with the main expansion (interleaved by distance), recording
// in found[n] the up-to-k nearest discovered competitors of node n in
// canonical order ("the kNN of each node found so far").
type epMarks struct {
	found map[graph.NodeID][]PointDist
	hp    pq.Heap[matHeapEntry]
	adj   []graph.Edge
}

// advance drains H' entries strictly below limit. The paper interleaves on
// "top of H' < last de-heaped distance of H"; draining against the distance
// of the *next* main pop is equivalent in cost order and guarantees every
// mark below the pop distance is in place before the pop's pruning check.
func (s *Searcher) advance(st *Stats, ep *epMarks, limit float64, k int) error {
	for {
		_, top, ok := ep.hp.Peek()
		if !ok || top >= limit {
			return nil
		}
		e, d, _ := ep.hp.Pop()
		st.NodesScanned++
		if err := s.checkExecStride(st); err != nil {
			return err
		}
		lst := ep.found[e.node]
		if !insertFound(&lst, e.p, d, k) {
			continue
		}
		ep.found[e.node] = lst
		var err error
		ep.adj, err = s.g.Adjacency(e.node, ep.adj)
		if err != nil {
			return err
		}
		for _, edge := range ep.adj {
			nd := d + edge.W
			if tgt := ep.found[edge.To]; len(tgt) == k && !entryLess(nd, e.p, tgt[k-1].D, tgt[k-1].P) {
				continue // cannot improve the neighbour's list
			}
			ep.hp.Push(matHeapEntry{edge.To, e.p}, nd)
		}
	}
}

// harvest adds the heap traffic of H' to st.
func (ep *epMarks) harvest(st *Stats) {
	st.HeapPushes += int64(ep.hp.PushCount)
	st.HeapPops += int64(ep.hp.PopCount)
}

// lazyEP is lazy-EP (Section 4.2): lazy evaluation with extended pruning.
// A node found closer to k discovered competitors than to the query (by the
// H' marks) is pruned without a verification query, and a candidate whose
// node's marks already show k closer competitors is rejected without one.
// Surviving candidates are decided by a verification (monochromatic) or an
// exact range count (bichromatic).
func (s *Searcher) lazyEP(cands, sites points.NodeView, mono bool, sources []graph.NodeID, target nodeTarget, k int) (*Result, error) {
	var st Stats
	main := s.acquire()
	defer func() { s.harvest(&st, main); s.release(main) }()
	main.begin()
	ep := &epMarks{found: make(map[graph.NodeID][]PointDist)}

	seeded := make(map[points.PointID]bool)     // sites expanding in H'
	classified := make(map[points.PointID]bool) // candidates decided
	var results []points.PointID
	for _, src := range sources {
		if mono {
			if p, ok := cands.PointAt(src); ok && !seeded[p] {
				seeded[p], classified[p] = true, true
				results = s.confirm(results, p)
				ep.hp.Push(matHeapEntry{src, p}, 0)
			}
		}
		main.push(src, 0)
	}

	var probe []PointDist
	for {
		if _, top, ok := main.heap.Peek(); ok {
			if err := s.advance(&st, ep, top, k); err != nil {
				return execResult(results, st, err)
			}
		}
		n, d, ok := main.pop()
		if !ok {
			break
		}
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return execResult(results, st, err)
		}
		lst := ep.found[n]
		dStrict := strictBound(d)
		pruned := len(lst) >= k && lst[k-1].D < dStrict
		if p, ok := cands.PointAt(n); ok && !classified[p] {
			classified[p] = true
			// Count discovered competitors (other than p itself) strictly
			// closer to n than the query; k of them disqualify p without a
			// sub-query (they are strictly closer to p as well, since p
			// sits on n).
			self := points.NoPoint
			if mono {
				self = p
			}
			closer := 0
			for _, f := range lst {
				if f.P != self && f.D < dStrict {
					closer++
				}
			}
			if closer < k {
				var member bool
				var err error
				if mono {
					member, err = s.verify(&st, sites, p, n, target, k, d, nil)
				} else {
					probe, err = s.rangeNN(&st, sites, n, k, d, probe)
					member = len(probe) < k
				}
				if err != nil {
					return execResult(results, st, err)
				}
				if member {
					results = s.confirm(results, p)
				}
			}
		}
		if p, ok := sites.PointAt(n); ok && !seeded[p] {
			seeded[p] = true
			ep.hp.Push(matHeapEntry{n, p}, 0)
		}
		if pruned {
			continue // Lemma 1 via the H' marks: no expansion
		}
		var adjErr error
		if main.adj, adjErr = s.g.Adjacency(n, main.adj); adjErr != nil {
			return nil, adjErr
		}
		for _, e := range main.adj {
			main.push(e.To, d+e.W)
		}
	}
	ep.harvest(&st)
	return finishResult(results, st), nil
}

// insertFound inserts (p,d) into a per-node found list kept in canonical
// order and capped at k entries. It reports whether the list changed.
func insertFound(lst *[]PointDist, p points.PointID, d float64, k int) bool {
	l := *lst
	for _, f := range l {
		if f.P == p {
			return false // first pop carries the minimal distance
		}
	}
	idx := sort.Search(len(l), func(i int) bool {
		return !entryLess(l[i].D, l[i].P, d, p)
	})
	if len(l) == k {
		if idx >= k {
			return false
		}
		l = l[:k-1]
	}
	l = append(l, PointDist{})
	copy(l[idx+1:], l[idx:])
	l[idx] = PointDist{P: p, D: d}
	*lst = l
	return true
}

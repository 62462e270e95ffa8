package core

import (
	"math"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// Directed-network RkNN — the extension Section 7 of the paper names as
// future work. With asymmetric distances the membership definition uses
// the candidate's *outgoing* distances:
//
//	p ∈ RkNN→(q)  ⇔  |{p' ∈ P\{p} : d(p→p') < d(p→q)}| < k
//
// (the query is among the k nearest objects p can reach). The eager
// framework carries over with one twist: the main expansion runs over
// *reverse* arcs — a Dijkstra over in-arcs from q computes d(n→q) for
// every node n — while the pruning probes and verifications expand over
// forward arcs. Lemma 1 holds in the directed form: if k points x satisfy
// d(n→x) < d(n→q), then any p' whose shortest p'→q path passes through n
// has d(p'→x) ≤ d(p'→n) + d(n→x) < d(p'→n) + d(n→q) = d(p'→q), so p' is
// not a member.
type DirectedSearcher struct {
	fwd *Searcher // expands along out-arcs: probes, verifications
	rev *Searcher // expands along in-arcs: the main traversal
}

// NewDirectedSearcher creates a searcher over a directed graph.
func NewDirectedSearcher(d *graph.Digraph) *DirectedSearcher {
	return &DirectedSearcher{fwd: NewSearcher(d.Out()), rev: NewSearcher(d.In())}
}

// EagerRkNN answers a directed monochromatic RkNN query from qnode.
func (ds *DirectedSearcher) EagerRkNN(ps points.NodeView, qnode graph.NodeID, k int) (*Result, error) {
	tgt, err := ds.target(qnode, k)
	if err != nil {
		return nil, err
	}
	set := PointSet{Node: ps}
	var st Stats
	main := ds.rev.acquire()
	defer ds.rev.release(&st, main)

	verified := make(map[points.PointID]bool)
	var results []points.PointID
	if p, ok := ps.PointAt(qnode); ok {
		verified[p] = true
		results = append(results, p) // d(p→q)=0: trivially a member
	}
	main.pushNode(qnode, 0)

	var found []PointDist
	for {
		ent, d, ok := main.pop()
		if !ok {
			break
		}
		n := ent.node()
		st.NodesExpanded++
		if err := ds.fwd.checkExec(&st); err != nil {
			return execResult(results, st, err)
		}
		// Candidates are verified at their own node's pop: the label d
		// upper-bounds d(p→q) there (and is exact for true members, whose
		// reverse path to q is never pruned). A point discovered by a
		// probe at another node m must NOT be verified with d(m→p)+d(m→q):
		// with asymmetric distances that sum does not bound d(p→q). The
		// probes below therefore only prune; a non-member whose node never
		// pops is correctly excluded.
		if p, ok := ps.PointAt(n); ok && !verified[p] {
			verified[p] = true
			member, err := ds.fwd.verify(&st, set, p, NodeLoc(n), tgt, k, d, nil)
			if err != nil {
				return execResult(results, st, err)
			}
			if member {
				results = append(results, p)
			}
		}
		// d upper-bounds d(n→q) (exact on every unpruned shortest path).
		found, err = ds.fwd.rangeNN(&st, set, NodeLoc(n), k, d, found)
		if err != nil {
			return execResult(results, st, err)
		}
		// Lemma 1 only covers points other than those that justified the
		// prune, so every probe-discovered point must be verified (its own
		// node may lie beyond the pruned frontier). Unlike the undirected
		// case, d(n→p) + d(n→q) does not bound d(p→q), so the radius is
		// unbounded; the verification still stops at the query or at the
		// k-th closer point.
		for _, pd := range found {
			if verified[pd.P] {
				continue
			}
			verified[pd.P] = true
			ploc, visible := set.loc(pd.P)
			if !visible {
				continue
			}
			member, err := ds.fwd.verify(&st, set, pd.P, ploc, tgt, k, math.Inf(1), nil)
			if err != nil {
				return execResult(results, st, err)
			}
			if member {
				results = append(results, pd.P)
			}
		}
		if len(found) >= k {
			continue // directed Lemma 1
		}
		if main.adj, err = ds.rev.g.Adjacency(n, main.adj); err != nil {
			return execResult(results, st, err)
		}
		for _, e := range main.adj {
			main.pushNode(e.To, d+e.W)
		}
	}
	return finishResult(results, st), nil
}

// BruteRkNN is the directed brute-force oracle: one forward verification
// per data point.
func (ds *DirectedSearcher) BruteRkNN(ps points.NodeView, qnode graph.NodeID, k int) (*Result, error) {
	tgt, err := ds.target(qnode, k)
	if err != nil {
		return nil, err
	}
	set := PointSet{Node: ps}
	return ds.fwd.brute(set, set, true, tgt, k)
}

// target validates a directed query and returns its verification target.
func (ds *DirectedSearcher) target(qnode graph.NodeID, k int) (target, error) {
	if k < 1 {
		return target{}, errKTooSmall(k)
	}
	return locTarget(NodeLoc(qnode)), ds.fwd.checkLoc(NodeLoc(qnode))
}

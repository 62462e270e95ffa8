package core

import (
	"math"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// nodeTarget identifies the query location(s) a verification expansion must
// reach: a single node for ordinary queries, or any node of a route for
// continuous queries (Section 5.1: a point is a result if the route is met
// before k closer points).
type nodeTarget struct {
	single graph.NodeID
	multi  map[graph.NodeID]bool
}

func singleTarget(n graph.NodeID) nodeTarget { return nodeTarget{single: n} }

func routeTarget(route []graph.NodeID) nodeTarget {
	m := make(map[graph.NodeID]bool, len(route))
	for _, n := range route {
		m[n] = true
	}
	return nodeTarget{multi: m}
}

func (t nodeTarget) hit(n graph.NodeID) bool {
	if t.multi != nil {
		return t.multi[n]
	}
	return t.single == n
}

// rangeNN implements range-NN(n, k, e) from Section 3.1: the k nearest data
// points of ps with network distance *strictly smaller* than e from n,
// appended to out in ascending distance order. Fewer than k points are
// returned when no more exist within the range.
func (s *Searcher) rangeNN(st *Stats, ps points.NodeView, n graph.NodeID, k int, e float64, out []PointDist) ([]PointDist, error) {
	st.RangeNN++
	out = out[:0]
	if e <= 0 || k <= 0 {
		return out, nil
	}
	e = strictBound(e)
	sc := s.acquire()
	defer func() { s.harvest(st, sc); s.release(sc) }()
	sc.begin()
	sc.push(n, 0)
	for {
		m, d, ok := sc.pop()
		if !ok || d >= e {
			break
		}
		st.NodesScanned++
		if err := s.checkExecStride(st); err != nil {
			return out, err
		}
		if p, has := ps.PointAt(m); has {
			out = append(out, PointDist{P: p, D: d})
			if len(out) >= k {
				break
			}
		}
		var err error
		sc.adj, err = s.g.Adjacency(m, sc.adj)
		if err != nil {
			return out, err
		}
		for _, edge := range sc.adj {
			if nd := d + edge.W; nd < e {
				sc.push(edge.To, nd)
			}
		}
	}
	return out, nil
}

// verify implements verify(p, k, q) from Section 3.1, generalized to serve
// every variant in the package: it expands the network around the candidate
// location (node start) and reports whether the target is met before k
// points of sites are found strictly closer. self is skipped during
// counting (the candidate itself in monochromatic queries; points.NoPoint
// for bichromatic ones). ub bounds the expansion; it must be an upper bound
// on the candidate-to-target distance, or +Inf for an oracle query.
//
// Counting is exact under ties: a site at exactly the candidate-to-target
// distance does not count against membership, regardless of heap pop order.
//
// A non-nil lz makes this the verification of the lazy algorithm (Fig 7):
// every visited node provably closer to the candidate than to the query
// additionally prunes lz's main walk.
func (s *Searcher) verify(st *Stats, sites points.NodeView, self points.PointID, start graph.NodeID, target nodeTarget, k int, ub float64, lz *lazyPrune[graph.NodeID]) (bool, error) {
	st.Verifications++
	sc := s.acquire()
	defer func() { s.harvest(st, sc); s.release(sc) }()
	sc.begin()
	sc.push(start, 0)
	// ubStrict is the strict-closeness threshold of the lazy side effect;
	// ub itself is inflated against float association noise.
	ub, ubStrict := upperBound(ub), strictBound(ub)

	strictCount := 0 // sites strictly closer than the current pop distance
	sameCount := 0   // sites at exactly the current pop distance
	lastDist := 0.0
	for {
		m, d, ok := sc.pop()
		if !ok {
			return false, nil // target unreachable within ub
		}
		st.NodesScanned++
		if err := s.checkExecStride(st); err != nil {
			return false, err
		}
		if d > lastDist {
			strictCount += sameCount
			sameCount = 0
			lastDist = d
		}
		if strictCount >= k {
			return false, nil
		}
		if target.hit(m) {
			return true, nil
		}
		if p, has := sites.PointAt(m); has && p != self {
			sameCount++
		}
		if lz != nil && lz.visit(m, d, ubStrict, k) {
			lz.unqueue(m)
		}
		var err error
		sc.adj, err = s.g.Adjacency(m, sc.adj)
		if err != nil {
			return false, err
		}
		for _, edge := range sc.adj {
			if nd := d + edge.W; nd <= ub {
				sc.push(edge.To, nd)
			}
		}
	}
}

// distance computes the exact network distance between two nodes with a
// plain Dijkstra expansion; it returns +Inf when disconnected. Used by
// tests and tooling, not by the query algorithms.
func (s *Searcher) distance(from, to graph.NodeID) (float64, error) {
	sc := s.acquire()
	defer s.release(sc)
	sc.begin()
	sc.push(from, 0)
	var st Stats
	for {
		m, d, ok := sc.pop()
		if !ok {
			return math.Inf(1), nil
		}
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return 0, err
		}
		if m == to {
			return d, nil
		}
		var err error
		sc.adj, err = s.g.Adjacency(m, sc.adj)
		if err != nil {
			return 0, err
		}
		for _, edge := range sc.adj {
			sc.push(edge.To, d+edge.W)
		}
	}
}

package core

import (
	"fmt"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// Kind enumerates the RkNN query families.
type Kind uint8

const (
	// KindRNN is the monochromatic query: the points that have the target
	// among their k nearest neighbors (Section 3).
	KindRNN Kind = iota
	// KindBichromatic classifies candidates P against sites Q (Section 5.1):
	//
	//	p ∈ bRkNN(q)  ⇔  |{q' ∈ Q : d(p,q') < d(p,q)}| < k
	//
	// The paper reduces this to monochromatic search over Q where *nodes*
	// are the objects being classified: a node n belongs to the answer
	// region iff q is among the k nearest sites of n, and the final answer
	// collects the candidates residing on such nodes.
	KindBichromatic
	// KindContinuous is the union of the RkNN sets of every node of a
	// route (Section 5.1), computed in one traversal.
	KindContinuous
)

// Algo enumerates the processing strategies.
type Algo uint8

const (
	AlgoEager  Algo = iota // Section 3.2
	AlgoLazy               // Section 3.3
	AlgoLazyEP             // Section 4.2
	AlgoEagerM             // Section 4.1, over materialized K-NN lists
	AlgoBrute              // the oracle
)

// Request describes one RkNN query: what to compute (Kind, K), how (Algo),
// over which point sets, and where (Target or Route). Exactly one
// residency is populated: Points (with Sites for KindBichromatic) selects
// the restricted network model of Sections 3-5.1, EdgePoints (with
// EdgeSites) the unrestricted one of Section 5.2.
type Request struct {
	Kind Kind
	Algo Algo
	K    int

	// Points is the data set; the candidate set for KindBichromatic, whose
	// competitors are Sites. For the usual "newly arrived object" semantics
	// the caller hides a point co-located with the query (points.ExcludeNode
	// / points.ExcludeEdge).
	Points, Sites         points.NodeView
	EdgePoints, EdgeSites points.EdgeView

	// Target is the query location of KindRNN and KindBichromatic. Node-
	// resident sets take node locations; edge-resident sets any location.
	Target Loc
	// Route is the node route of KindContinuous.
	Route []graph.NodeID
}

// Run answers r. It is the single entry to every algorithm × kind ×
// residency combination; all of them return identical answers. mat holds
// the materialized K-NN lists AlgoEagerM reads (nil for every other
// algorithm); it must have been built over the competitor set (Points;
// Sites when bichromatic).
func (s *Searcher) Run(r Request, mat *Materialized) (*Result, error) {
	if r.Algo == AlgoEagerM {
		if err := checkMatK(mat, r.K); err != nil {
			return nil, err
		}
	}
	if r.EdgePoints != nil {
		return s.runEdge(r, mat)
	}
	sources, target, err := s.nodeTarget(r)
	if err != nil {
		return nil, err
	}
	cands, sites, mono := r.Points, r.Points, true
	if r.Kind == KindBichromatic {
		sites, mono = r.Sites, false
	}
	switch r.Algo {
	case AlgoEager:
		return s.eager(cands, sites, mono, sources, target, r.K)
	case AlgoLazy:
		return s.lazy(cands, sites, mono, sources, target, r.K)
	case AlgoLazyEP:
		return s.lazyEP(cands, sites, mono, sources, target, r.K)
	case AlgoEagerM:
		return s.eagerM(cands, sites, mono, mat, sources, target, r.K)
	default:
		return s.brute(cands, sites, mono, target, r.K)
	}
}

func (s *Searcher) runEdge(r Request, mat *Materialized) (*Result, error) {
	cands, sites, mono := r.EdgePoints, r.EdgePoints, true
	if r.Kind == KindBichromatic {
		sites, mono = r.EdgeSites, false
	}
	sources, target := []Loc{r.Target}, uLocTarget(r.Target)
	if r.Kind == KindContinuous {
		sources, target = nodeLocs(r.Route), uRouteTarget(r.Route)
	}
	switch r.Algo {
	case AlgoEager:
		return s.uEager(cands, sites, mono, nil, sources, target, r.K)
	case AlgoEagerM:
		return s.uEager(cands, sites, mono, mat, sources, target, r.K)
	case AlgoLazy:
		return s.uLazy(cands, sites, mono, sources, target, r.K)
	case AlgoLazyEP:
		return s.uLazyEP(cands, sites, mono, sources, target, r.K)
	default:
		return s.uBrute(cands, sites, mono, target, r.K)
	}
}

// VerifyMember reports whether point p of r.Points belongs to the answer
// of r, with exactly the expansion the brute-force oracle runs for it
// (r.Algo is ignored). A coordinator that merges shard-local candidate
// sets confirms each candidate this way, so a verified merge is
// bit-identical to an unsharded answer — same distances, same epsilon
// bounds, same tie handling. A deleted p is not a member. Node-resident
// requests only.
func (s *Searcher) VerifyMember(r Request, p points.PointID) (bool, Stats, error) {
	var st Stats
	if r.EdgePoints != nil {
		return false, st, fmt.Errorf("core: VerifyMember takes a node-resident request")
	}
	_, target, err := s.nodeTarget(r)
	if err != nil {
		return false, st, err
	}
	sites, mono := r.Points, true
	if r.Kind == KindBichromatic {
		sites, mono = r.Sites, false
	}
	member, err := s.verifyMember(&st, r.Points, sites, mono, p, target, r.K)
	return member, st, err
}

// nodeTarget validates the location of a node-resident request and returns
// its expansion sources and verification target.
func (s *Searcher) nodeTarget(r Request) ([]graph.NodeID, nodeTarget, error) {
	if r.Kind == KindContinuous {
		if err := s.checkRoute(r.Route, r.K); err != nil {
			return nil, nodeTarget{}, err
		}
		return r.Route, routeTarget(r.Route), nil
	}
	if !r.Target.IsNode() {
		return nil, nodeTarget{}, fmt.Errorf("core: node-resident point sets take node targets, got %v", r.Target)
	}
	q := r.Target.U
	if err := s.checkQuery(q, r.K); err != nil {
		return nil, nodeTarget{}, err
	}
	return []graph.NodeID{q}, singleTarget(q), nil
}

func (s *Searcher) checkQuery(qnode graph.NodeID, k int) error {
	if k < 1 {
		return errKTooSmall(k)
	}
	if qnode < 0 || int(qnode) >= s.g.NumNodes() {
		return fmt.Errorf("core: query node %d out of range [0,%d)", qnode, s.g.NumNodes())
	}
	return nil
}

func (s *Searcher) checkRoute(route []graph.NodeID, k int) error {
	if len(route) == 0 {
		return fmt.Errorf("core: empty route")
	}
	for _, n := range route {
		if err := s.checkQuery(n, k); err != nil {
			return err
		}
	}
	return nil
}

func checkMatK(mat *Materialized, k int) error {
	if mat == nil {
		return fmt.Errorf("core: nil materialized lists")
	}
	if k > mat.MaxK() {
		return fmt.Errorf("core: k=%d exceeds materialized K=%d", k, mat.MaxK())
	}
	return nil
}

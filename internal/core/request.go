package core

import (
	"fmt"

	"graphrnn/internal/exec"
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
	AlgoBrute              // Section 3.1's naive baseline
)

// Request describes one RkNN query: what to compute (Kind, K), how (Algo),
// over which point sets, and where (Target or Route). The residency of
// Points selects the network model: node-resident sets the restricted one
// of Sections 3-5.1, edge-resident sets the unrestricted one of Section
// 5.2.
type Request struct {
	Kind Kind
	Algo Algo
	K    int

	// Points is the data set; the candidate set for KindBichromatic, whose
	// competitors are Sites. For the usual "newly arrived object" semantics
	// the caller hides a point co-located with the query (points.ExcludeNode
	// / points.ExcludeEdge).
	Points, Sites PointSet

	// Target is the query location of KindRNN and KindBichromatic. Node-
	// resident sets take node locations; edge-resident sets any location.
	Target Loc
	// Route is the node route of KindContinuous.
	Route []graph.NodeID
	// Mat holds the materialized K-NN lists AlgoEagerM reads (ignored by
	// every other algorithm); it must have been built over the competitor
	// set (Points; Sites when bichromatic).
	Mat *Materialized
}

// Run answers r. It is the single entry to every algorithm × kind ×
// residency combination; all of them return identical answers.
func (s *Searcher) Run(r Request) (*Result, error) {
	if s.disk == nil {
		return s.run(r)
	}
	view := s.session()
	res, err := view.run(r)
	if err = view.endSession(err); err != nil && !exec.IsExecErr(err) {
		res = nil
	}
	return res, err
}

func (s *Searcher) run(r Request) (*Result, error) {
	mat := r.Mat
	if r.Algo != AlgoEagerM {
		mat = nil
	} else if err := checkMatK(mat, r.K); err != nil {
		return nil, err
	}
	if r.Algo == AlgoLazy || r.Algo == AlgoEagerM {
		if err := s.symmetricOnly("lazy and eager-M"); err != nil {
			return nil, err
		}
	}
	tgt, err := s.locate(r)
	if err != nil {
		return nil, err
	}
	cands, sites, mono := r.sets()
	sources := []Loc{r.Target}
	if r.Kind == KindContinuous {
		sources = make([]Loc, len(r.Route))
		for i, n := range r.Route {
			sources[i] = NodeLoc(n)
		}
	}
	switch r.Algo {
	case AlgoEager, AlgoEagerM:
		return s.eager(cands, sites, mono, mat, sources, tgt, r.K)
	case AlgoLazy:
		return s.lazy(cands, sites, mono, sources, tgt, r.K)
	case AlgoLazyEP:
		return s.lazyEP(cands, sites, mono, sources, tgt, r.K)
	default:
		return s.brute(cands, sites, mono, tgt, r.K)
	}
}

// sets returns the candidates and competitors of r, and whether they are
// one set (every kind but bichromatic).
func (r Request) sets() (cands, sites PointSet, mono bool) {
	if r.Kind == KindBichromatic {
		return r.Points, r.Sites, false
	}
	return r.Points, r.Points, true
}

// VerifyMember reports whether point p of r.Points belongs to the answer
// of r, with exactly the expansion brute force runs for it
// (r.Algo is ignored). A coordinator that merges shard-local candidate
// sets confirms each candidate this way, so a verified merge is
// identical to an unsharded answer — same distance counts, same tie
// handling. A deleted p is not a member.
func (s *Searcher) VerifyMember(r Request, p points.PointID) (bool, Stats, error) {
	var st Stats
	tgt, err := s.locate(r)
	if err != nil {
		return false, st, err
	}
	cands, sites, mono := r.sets()
	member, err := s.verifyMember(&st, cands, sites, mono, p, tgt, r.K)
	return member, st, err
}

// locate validates k and the location of r and returns its verification
// target.
func (s *Searcher) locate(r Request) (target, error) {
	if r.K < 1 {
		return target{}, errKTooSmall(r.K)
	}
	if r.Points.Edge != nil || r.Sites.Edge != nil {
		if err := s.symmetricOnly("edge-resident point sets"); err != nil {
			return target{}, err
		}
	}
	if r.Kind == KindContinuous {
		if len(r.Route) == 0 {
			return target{}, fmt.Errorf("core: empty route")
		}
		for _, n := range r.Route {
			if err := s.checkLoc(NodeLoc(n)); err != nil {
				return target{}, err
			}
		}
		return routeTarget(r.Route), nil
	}
	if r.Points.Node != nil && !r.Target.IsNode() {
		return target{}, fmt.Errorf("core: node-resident point sets take node targets, got %v", r.Target)
	}
	return locTarget(r.Target), s.checkLoc(r.Target)
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

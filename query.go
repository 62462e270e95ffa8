package graphrnn

import (
	"fmt"

	"graphrnn/internal/core"
	"graphrnn/internal/exec"
)

// Algorithm selects a query processing strategy. The zero Algorithm (or
// Auto) defers the choice to the planner, which picks the fastest attached
// substrate that can answer the query's shape — see DB.Plan.
type Algorithm struct {
	kind algoKind
	mat  *Materialization
	hub  *HubLabelIndex
}

type algoKind int

const (
	// algoAuto is the zero value: the planner chooses the substrate.
	algoAuto algoKind = iota
	algoEager
	algoLazy
	algoLazyEP
	algoEagerM
	algoHub
	algoBrute
	// algoExpansion is the planner's name for the single forward-expansion
	// KNN search; it is not constructible through the public surface.
	algoExpansion
)

// symmetricOnly reports the strategies whose correctness needs d(a,b) =
// d(b,a) (see ErrUndirectedOnly).
func (k algoKind) symmetricOnly() bool { return k == algoLazy || k == algoEagerM }

// Auto defers the substrate choice to the planner (the zero Algorithm).
func Auto() Algorithm { return Algorithm{} }

// Eager prunes every visited node with a range-NN probe (Section 3.2).
// Lowest I/O in most settings; CPU-heavier than Lazy.
func Eager() Algorithm { return Algorithm{kind: algoEager} }

// Lazy prunes only when data points are discovered, via verification side
// effects (Section 3.3). Low CPU; unsuitable for low-diameter networks.
// Undirected graphs only.
func Lazy() Algorithm { return Algorithm{kind: algoLazy} }

// LazyEP is Lazy with extended pruning via a parallel point-expansion heap
// (Section 4.2).
func LazyEP() Algorithm { return Algorithm{kind: algoLazyEP} }

// EagerM is Eager over the materialized K-NN lists m (Section 4.1); m must
// have been built over the queried point set (bichromatic: over the sites).
// Undirected graphs only.
func EagerM(m *Materialization) Algorithm { return Algorithm{kind: algoEagerM, mat: m} }

// HubLabel answers by hub-label intersection over idx — no network
// expansion at all. idx must have been built over the queried point set
// (bichromatic: over the sites); monochromatic and continuous queries
// support k <= idx.MaxK(). Node-resident point sets only.
func HubLabel(idx *HubLabelIndex) Algorithm { return Algorithm{kind: algoHub, hub: idx} }

// BruteForce verifies every data point; the oracle the paper's Section 3.1
// dismisses as a baseline. Useful for testing and tiny graphs.
func BruteForce() Algorithm { return Algorithm{kind: algoBrute} }

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a.kind {
	case algoAuto:
		return "auto"
	case algoEager:
		return "eager"
	case algoLazy:
		return "lazy"
	case algoLazyEP:
		return "lazy-EP"
	case algoEagerM:
		return "eager-M"
	case algoHub:
		return "hub-label"
	case algoExpansion:
		return "expansion"
	default:
		return "brute-force"
	}
}

// Stats describes the work performed by one query or maintenance
// operation: the engine's own counter type, unconverted.
type Stats = core.Stats

// Result is a query answer.
type Result struct {
	// Points holds the reverse k-nearest neighbors in ascending id order
	// (empty for KindKNN, which answers in Neighbors).
	Points []PointID
	// Neighbors holds KindKNN answers in ascending distance order.
	Neighbors []Neighbor
	// Stats describes the work performed.
	Stats Stats
	// Plan records the planner's decision.
	Plan Plan
}

// wrapResult converts a core result to the public shape. A non-nil result
// accompanied by an execution-control error (cancellation, deadline,
// budget) is passed through as the partial answer.
func wrapResult(r *core.Result, err error) (*Result, error) {
	if r == nil {
		return nil, err
	}
	return &Result{Points: fromPointIDs(r.Points), Stats: r.Stats}, err
}

// pointsArg accepts either a *NodePoints or a NodePointsView.
type pointsArg interface {
	PointSet
	nodeView() NodePointsView
}

func (ps *NodePoints) nodeView() NodePointsView   { return ps.View() }
func (v NodePointsView) nodeView() NodePointsView { return v }

type edgeArg interface {
	PointSet
	edgeView() EdgePointsView
}

func (ps *EdgePoints) edgeView() EdgePointsView      { return ps.View() }
func (ps *PagedEdgePoints) edgeView() EdgePointsView { return ps.View() }
func (v EdgePointsView) edgeView() EdgePointsView    { return v }

// runPlanned dispatches a planned query to its executor: the forward
// search, the hub-label index, or — for every expansion algorithm × kind ×
// residency — the one core request.
func (db *DB) runPlanned(ec *exec.Ctx, pl *planned) (*Result, error) {
	if pl.plan.Kind == KindKNN {
		return db.runKNN(ec, pl)
	}
	algo := pl.plan.Algorithm
	if algo.kind == algoHub {
		if pl.plan.Edge {
			return nil, fmt.Errorf("graphrnn: hub-label supports node-resident point sets only")
		}
		if algo.hub == nil || algo.hub.idx == nil {
			return nil, fmt.Errorf("graphrnn: HubLabel requires a HubLabelIndex (use db.BuildHubLabelIndex)")
		}
		return wrapResult(algo.hub.run(ec, pl))
	}
	req := core.Request{
		Kind: core.Kind(pl.plan.Kind), Algo: algo.kind.core(), K: pl.k,
		Points: pl.points, Sites: pl.sites,
		Target: pl.loc.toLoc(), Route: toNodeIDs(pl.route),
	}
	if algo.kind == algoEagerM {
		if algo.mat == nil || algo.mat.m == nil {
			return nil, fmt.Errorf("graphrnn: EagerM requires a Materialization (use db.MaterializeNodePoints / MaterializeEdgePoints)")
		}
		req.Mat = algo.mat.m
	}
	return wrapResult(db.searcher.Bound(ec).Run(req))
}

// core maps an expansion strategy onto the engine's; the planner resolves
// every other kind before dispatch.
func (k algoKind) core() core.Algo {
	switch k {
	case algoEager:
		return core.AlgoEager
	case algoLazy:
		return core.AlgoLazy
	case algoLazyEP:
		return core.AlgoLazyEP
	case algoEagerM:
		return core.AlgoEagerM
	default:
		return core.AlgoBrute
	}
}

// runKNN executes the forward search; on a typed execution error the
// neighbors found so far ride along with it, like every other kind.
func (db *DB) runKNN(ec *exec.Ctx, pl *planned) (*Result, error) {
	out, err := db.searcher.Bound(ec).KNN(pl.points, pl.loc.toLoc(), pl.k)
	if err != nil && !exec.IsExecErr(err) {
		return nil, err
	}
	nbrs := make([]Neighbor, len(out))
	for i, pd := range out {
		nbrs[i] = Neighbor{P: PointID(pd.P), Distance: pd.D}
	}
	return &Result{Neighbors: nbrs}, err
}

// Neighbor is one k-nearest-neighbor result. Distance is exact over the
// weights as the graph holds them, on its quantum (GraphBuilder): against the
// weights as added it moves by at most Q/2 per edge on the path.
type Neighbor struct {
	P        PointID
	Distance float64
}

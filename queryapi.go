package graphrnn

import (
	"fmt"
	"time"

	"graphrnn/internal/core"
)

// This file is the declarative half of the query API: one Query value
// describes any request the system answers — monochromatic, bichromatic or
// continuous RkNN and forward KNN, node- or edge-resident, bounded or not —
// and the engine surface (Run, RunBatch, Stream in engine.go) executes it
// through the planner (plan.go).

// Kind enumerates the query families of the paper.
type Kind int

// The RkNN kinds are the engine's own, so a planned query hands its Kind
// through unconverted.
const (
	// KindRNN is the monochromatic reverse k-nearest-neighbor query: the
	// points that have the target among their k nearest neighbors (§3).
	KindRNN = Kind(core.KindRNN)
	// KindBichromatic is bRkNN over candidates (Points) and sites (Sites):
	// the candidates with fewer than k sites strictly closer than the
	// target (§5.3).
	KindBichromatic = Kind(core.KindBichromatic)
	// KindContinuous is cRkNN over Route: the union of the RkNN sets of
	// every route node, computed in one traversal (§5.1).
	KindContinuous = Kind(core.KindContinuous)
	// KindKNN is the forward k-nearest-neighbor search (§3.1); the answer
	// is Result.Neighbors.
	KindKNN = KindContinuous + 1
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindRNN:
		return "rnn"
	case KindBichromatic:
		return "bichromatic"
	case KindContinuous:
		return "continuous"
	case KindKNN:
		return "knn"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// PointSet is a reference to a point set a Query can name: *NodePoints or
// NodePointsView (node-resident), *EdgePoints, *PagedEdgePoints or
// EdgePointsView (edge-resident). The residency of Points decides whether
// the query runs on the restricted or the unrestricted network model.
type PointSet interface{ pointSet() }

func (ps *NodePoints) pointSet()      {}
func (v NodePointsView) pointSet()    {}
func (ps *EdgePoints) pointSet()      {}
func (ps *PagedEdgePoints) pointSet() {}
func (v EdgePointsView) pointSet()    {}

// Query is the declarative description of one request: what to compute
// (Kind, K), where (Target or Route), over which point sets (Points,
// Sites), under which execution bounds (the embedded QueryOptions) and —
// optionally — how (Algorithm). Build it as a literal and pass it to
// DB.Run, DB.RunBatch or DB.Stream:
//
//	res, err := db.Run(ctx, graphrnn.Query{
//	    Kind:   graphrnn.KindRNN,
//	    Target: graphrnn.NodeLocation(q),
//	    K:      2,
//	    Points: ps,
//	})
//
// The zero Algorithm lets the planner pick the substrate (DB.Plan documents
// the policy); Result.Plan echoes the decision.
type Query struct {
	// Kind selects the query family. The zero value is KindRNN.
	Kind Kind
	// Target is the query location: a node (NodeLocation) or a point on an
	// edge (EdgeLocation). Edge-interior targets require an edge-resident
	// Points set; node-resident sets take node targets. Ignored by
	// KindContinuous, which queries along Route.
	Target Location
	// Route is the node route of a KindContinuous query.
	Route []NodeID
	// K is the query depth (k >= 1).
	K int
	// Points is the queried point set: the data set for KindRNN,
	// KindContinuous and KindKNN, the candidate set for KindBichromatic.
	Points PointSet
	// Sites is the site (competitor) set of a KindBichromatic query; it
	// must match the residency of Points. Nil for every other Kind.
	Sites PointSet
	// Algorithm hints the processing strategy. The zero value (Auto) lets
	// the planner choose; a hint the planner cannot run on this query's
	// shape falls back to a compatible substrate (Plan.Fallback reports
	// it) unless Strict is set.
	Algorithm Algorithm
	// Strict makes the named Algorithm run or error: the planner never
	// substitutes another substrate for an incompatible hint.
	Strict bool
	// QueryOptions bounds the query (per-query deadline, work budget). The
	// zero value applies only the Run context's own cancellation/deadline.
	QueryOptions
}

// Hit is one streamed result member (see DB.Stream).
type Hit struct {
	// P is the confirmed member.
	P PointID
	// Distance is the network distance of the hit for KindKNN streams
	// (ascending); RkNN kinds report 0 — membership, not distance, is the
	// answer there.
	Distance float64
}

// BatchReport is the answer of one RunBatch call.
type BatchReport struct {
	// Results holds one entry per query, in input order. On an
	// execution-control error (cancellation, deadline, budget) an entry
	// carries both the partial Result and the error.
	Results []BatchResult
	// Workers is the number of worker goroutines actually used
	// (Parallelism capped by the batch size).
	Workers int
	// Succeeded and Failed count entries without and with an error.
	Succeeded int
	Failed    int
	// Work aggregates the per-query work statistics across all entries
	// that produced a result, partial answers included.
	Work Stats
	// Wall is the wall-clock time of the whole batch.
	Wall time.Duration
}

// Package core implements the reverse-nearest-neighbor query algorithms of
//
//	M. L. Yiu, D. Papadias, N. Mamoulis, Y. Tao:
//	"Reverse Nearest Neighbors in Large Graphs", ICDE 2005 / TKDE 18(4), 2006.
//
// One walker serves both network models of the paper: restricted networks
// (Sections 3-5.1, data points on nodes) are the degenerate case of
// unrestricted ones (Section 5.2, data points — and queries — anywhere on
// the edges). A traversal is a scratch whose single queue — a monotone
// radix queue, since every push is the popped distance plus a non-negative
// weight or offset — holds graph nodes, point arrivals and target arrivals
// (scratch.go); where the points are is the residency of a PointSet, a
// node view or an edge view, and every loop asks both "which point sits on
// node n" and "which points sit on edge (u,v)" (loc.go). On top of one rangeNN, one verify, one KNN and one
// Distance (expand.go) it provides one main walk each for:
//
//   - eager: expansion from the query with per-node range-NN pruning (§3.2)
//     — or, as eager-M, reading materialized K-NN lists built by all-NN,
//     with insertion and two-step border-node deletion maintenance (§4.1)
//   - lazy: expansion pruned by verification queries of discovered points,
//     with per-node counters that also drop the queued entries of a node
//     found closer to k points than to the query (§3.3, Fig 6)
//   - lazy-EP: lazy with a second heap propagating the pruning power of
//     discovered points in parallel with the main expansion (§4.2)
//   - brute force: one unbounded verification per candidate (§3.1)
//
// each answering the monochromatic, bichromatic and continuous (route)
// kinds (§5) through the one Request → Run dispatch (request.go).
//
// Direction is the third axis beside kind and residency, and like
// residency it is data, not a second searcher: the Searcher holds the
// graph's out-arc view and its in-arc view (graph.Access.In), which are one
// and the same unless the graph has one-way arcs — the extension Section 7
// of the paper leaves open. Main walks (and lazy-EP's H') follow in-arcs, so
// a popped node carries d(n→q); range-NN, verify, KNN and Distance follow
// out-arcs. Eager, lazy-EP and brute force serve node-resident sets on such
// a graph; what needs d(a,b) = d(b,a) — lazy, materialized lists, edge
// residency — answers ErrUndirectedOnly.
//
// # Conventions
//
// Result membership is tie-inclusive, pruning is strict, matching the
// paper's definitions (d(p,q) <= d(p, p_k(p)) for membership, Lemma 1 with
// strict inequality for pruning). With asymmetric distances membership
// uses the candidate's *outgoing* distances — the query is among the k
// nearest objects p can reach:
//
//	p ∈ RkNN(q)  ⇔  |{p' ∈ P\{p} : d(p→p') < d(p→q)}| < k
//
// A point that cannot reach the query (disconnected component) is never a
// result. All algorithms return identical answers: this package's property
// tests (mustMatchOracle) and the root package's agreement harness hold
// every one of them, brute force included, to internal/oracle — one
// Dijkstra per point, sharing no code with this package — at every node of
// randomized networks.
package core

import (
	"sort"

	"graphrnn/internal/exec"
	"graphrnn/internal/points"
)

// Stats describes the work performed by a single query or maintenance
// operation. It is the one counter type of the system: the engine fills
// it, the public API returns it unconverted (graphrnn.Stats is an alias),
// and the JSON tags are the server's wire names.
type Stats struct {
	// NodesExpanded counts nodes popped by the main (query-side) expansion.
	NodesExpanded int64 `json:"nodes_expanded"`
	// NodesScanned counts nodes popped by secondary expansions: range-NN,
	// verification queries, and lazy-EP's point heap.
	NodesScanned int64 `json:"nodes_scanned"`
	// RangeNN counts range-NN sub-queries issued (eager family).
	RangeNN int64 `json:"range_nn"`
	// Verifications counts verification sub-queries issued.
	Verifications int64 `json:"verifications"`
	// MatReads counts materialized K-NN list lookups (eager-M).
	MatReads int64 `json:"mat_reads"`
	// LabelReads counts hub label fetches (hub-label substrate; filled by
	// the hub-label index, not by the expansion algorithms).
	LabelReads int64 `json:"label_reads"`
	// LabelEntries counts label and hub-list entries scanned (hub-label);
	// the entry a pruned list scan stops on is not one of them.
	LabelEntries int64 `json:"label_entries"`
	// HeapPushes and HeapPops count priority queue traffic across every
	// queue of the operation: the main walk's, every sub-expansion's and
	// lazy-EP's H'. An entry lazy drops unpopped is a push, not a pop.
	HeapPushes int64 `json:"heap_pushes"`
	HeapPops   int64 `json:"heap_pops"`
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.NodesExpanded += o.NodesExpanded
	s.NodesScanned += o.NodesScanned
	s.RangeNN += o.RangeNN
	s.Verifications += o.Verifications
	s.MatReads += o.MatReads
	s.LabelReads += o.LabelReads
	s.LabelEntries += o.LabelEntries
	s.HeapPushes += o.HeapPushes
	s.HeapPops += o.HeapPops
}

// Result is the answer of an RkNN query.
type Result struct {
	// Points holds the reverse k-nearest neighbors in ascending id order.
	Points []points.PointID
	// Stats describes the work performed.
	Stats Stats
}

func finishResult(ids []points.PointID, st Stats) *Result {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &Result{Points: ids, Stats: st}
}

// execResult finishes a query abandoned by an error: execution-control
// errors (cancellation, deadline, budget — see errors.go) carry the
// partial result and its stats out alongside the error, every other error
// invalidates the result.
func execResult(ids []points.PointID, st Stats, err error) (*Result, error) {
	if exec.IsExecErr(err) {
		return finishResult(ids, st), err
	}
	return nil, err
}

// confirm records one confirmed result member, forwarding it to the
// engine's streaming sink when the query has one attached (Ctx.Emit is a
// nil check otherwise). Every membership decision of every algorithm is
// final — results are only ever appended — which is what makes streaming
// confirmed members before the expansion finishes sound.
func (s *Searcher) confirm(results []points.PointID, p points.PointID) []points.PointID {
	s.ec.Emit(int32(p), 0)
	return append(results, p)
}

// PointDist pairs a point with a network distance.
type PointDist struct {
	P points.PointID
	D float64
}

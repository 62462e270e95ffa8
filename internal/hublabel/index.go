package hublabel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
)

// Index is the ReHub-style reverse side of a labeling: every hub carries the
// list of data points it covers, annotated with the point↔hub distance, so
// that one pass over the hub lists of a query label yields the distance from
// every data point to the query — no network expansion at all.
//
// Queries run in two phases. Phase 1 intersects the query's backward label
// with the forward hub lists, producing d(p→q) for every point p that can
// reach q. Phase 2 decides membership |{p' ≠ p : d(p→p') < d(p→q)}| < k
// against the per-point K-NN thresholds materialized at build time, falling
// back to an exact early-terminating hub-list merge in the rare case the
// thresholds cannot certify an answer (an excluded point occupied one of the
// stored slots). Both phases touch only label entries and hub lists; the
// graph itself is never read.
//
// An Index is safe for concurrent queries (per-query scratch comes from a
// sync.Pool and the underlying Source is read-only); Insert and Delete
// require exclusive access, like every other mutating operation in this
// repository.
type Index struct {
	src  Source
	maxK int

	nodes []graph.NodeID // point id -> node, -1 when deleted
	live  int

	// fwd[h] holds (p, d(p→h)) for h ∈ L_out(p); bwd[h] holds (p, d(h→p))
	// for h ∈ L_in(p), by hub id. Undirected labelings share one table.
	fwd, bwd [][]pointEnt

	// thr[p] holds the up-to-maxK nearest other points of p by outgoing
	// distance, ascending (distance, id) — the materialized k-NN
	// thresholds.
	thr [][]pointEnt

	scratch sync.Pool // *qscratch
}

// pointEnt pairs a point with a distance.
type pointEnt struct {
	P points.PointID
	D float64
}

// QueryStats describes the work of one hub-label operation.
type QueryStats struct {
	// LabelReads counts label fetches through the Source.
	LabelReads int64
	// Entries counts label and hub-list entries scanned.
	Entries int64
	// Fallbacks counts exact-merge fallbacks taken by phase 2.
	Fallbacks int64
}

// PointOnNode seeds an Index with one point.
type PointOnNode struct {
	P    points.PointID
	Node graph.NodeID
}

// NewIndex builds the reverse index over src for the given points,
// materializing thresholds for queries up to maxK. Point ids must be
// distinct; at most one point per node (the restricted-network model).
func NewIndex(src Source, maxK int, pts []PointOnNode) (*Index, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("hublabel: maxK must be >= 1, got %d", maxK)
	}
	idx := &Index{
		src:  src,
		maxK: maxK,
		fwd:  make([][]pointEnt, src.NumNodes()),
	}
	if src.Directed() {
		idx.bwd = make([][]pointEnt, src.NumNodes())
	} else {
		idx.bwd = idx.fwd
	}
	idx.scratch.New = func() any { return &qscratch{} }

	maxP := -1
	for _, p := range pts {
		if int(p.P) > maxP {
			maxP = int(p.P)
		}
	}
	idx.nodes = make([]graph.NodeID, maxP+1)
	for i := range idx.nodes {
		idx.nodes[i] = -1
	}
	var buf []Entry
	var err error
	for _, p := range pts {
		if p.P < 0 {
			return nil, fmt.Errorf("hublabel: negative point id %d", p.P)
		}
		if idx.nodes[p.P] >= 0 {
			return nil, fmt.Errorf("hublabel: duplicate point id %d", p.P)
		}
		if p.Node < 0 || int(p.Node) >= src.NumNodes() {
			return nil, fmt.Errorf("hublabel: node %d out of range [0,%d)", p.Node, src.NumNodes())
		}
		idx.nodes[p.P] = p.Node
		idx.live++
		if buf, err = idx.addToLists(p.P, p.Node, buf); err != nil {
			return nil, err
		}
	}
	for h := range idx.fwd {
		sortList(idx.fwd[h])
	}
	if src.Directed() {
		for h := range idx.bwd {
			sortList(idx.bwd[h])
		}
	}
	// Materialize thresholds once the lists are complete.
	sc := idx.acquire()
	defer idx.release(sc)
	idx.thr = make([][]pointEnt, len(idx.nodes))
	var st QueryStats
	for p, n := range idx.nodes {
		if n < 0 {
			continue
		}
		t, err := idx.topK(sc, &st, n, maxK, points.PointID(p))
		if err != nil {
			return nil, err
		}
		idx.thr[p] = t
	}
	return idx, nil
}

// addToLists inserts p's label entries into the hub lists (unsorted append;
// callers sort or insert-sorted as appropriate).
func (idx *Index) addToLists(p points.PointID, n graph.NodeID, buf []Entry) ([]Entry, error) {
	var err error
	if buf, err = idx.src.OutLabel(n, buf); err != nil {
		return buf, err
	}
	for _, e := range buf {
		idx.fwd[e.Hub] = append(idx.fwd[e.Hub], pointEnt{P: p, D: e.Dist})
	}
	if idx.src.Directed() {
		if buf, err = idx.src.InLabel(n, buf); err != nil {
			return buf, err
		}
		for _, e := range buf {
			idx.bwd[e.Hub] = append(idx.bwd[e.Hub], pointEnt{P: p, D: e.Dist})
		}
	}
	return buf, nil
}

func sortList(l []pointEnt) {
	slices.SortFunc(l, func(a, b pointEnt) int {
		if c := cmp.Compare(a.D, b.D); c != 0 {
			return c
		}
		return cmp.Compare(a.P, b.P)
	})
}

// MaxK returns the largest monochromatic query k the thresholds support.
func (idx *Index) MaxK() int { return idx.maxK }

// Len returns the number of live points.
func (idx *Index) Len() int { return idx.live }

// NodeOf returns the node hosting point p.
func (idx *Index) NodeOf(p points.PointID) (graph.NodeID, bool) {
	if p < 0 || int(p) >= len(idx.nodes) || idx.nodes[p] < 0 {
		return 0, false
	}
	return idx.nodes[p], true
}

// Points returns the live point ids in ascending order.
func (idx *Index) Points() []points.PointID {
	out := make([]points.PointID, 0, idx.live)
	for p, n := range idx.nodes {
		if n >= 0 {
			out = append(out, points.PointID(p))
		}
	}
	return out
}

// --- Per-query scratch -----------------------------------------------------

type cursor struct{ list, pos int32 }

type qscratch struct {
	pdist   []float64 // per point: tentative d(p→q)
	stamp   []uint32
	ep      uint32
	touched []points.PointID

	mark []uint32 // merge dedup marks
	mep  uint32

	lab1, lab2 []Entry
	lists      [][]pointEnt
	labelDist  []float64 // hub distance of each merge list
	heap       pq.Heap[cursor]
}

func (sc *qscratch) grow(n int) {
	if len(sc.pdist) < n {
		sc.pdist = make([]float64, n)
		sc.stamp = make([]uint32, n)
		sc.mark = make([]uint32, n)
		sc.ep, sc.mep = 0, 0
	}
}

func (sc *qscratch) beginRelax() {
	sc.ep++
	if sc.ep == 0 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.ep = 1
	}
	sc.touched = sc.touched[:0]
}

func (sc *qscratch) beginMerge() {
	sc.mep++
	if sc.mep == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.mep = 1
	}
	sc.heap.Reset()
}

func (idx *Index) acquire() *qscratch {
	sc := idx.scratch.Get().(*qscratch)
	sc.grow(len(idx.nodes))
	return sc
}

func (idx *Index) release(sc *qscratch) { idx.scratch.Put(sc) }

// --- Phase 1: all point→target distances -----------------------------------

// relax folds one backward label (of a query node) into the tentative
// point→query distances: for every (h, dhq) and every (p, dph) in fwd[h],
// d(p→q) candidates dph + dhq.
func (idx *Index) relax(sc *qscratch, st *QueryStats, label []Entry) {
	st.Entries += int64(len(label))
	for _, e := range label {
		list := idx.fwd[e.Hub]
		st.Entries += int64(len(list))
		for _, pe := range list {
			d := pe.D + e.Dist
			if sc.stamp[pe.P] != sc.ep {
				sc.stamp[pe.P] = sc.ep
				sc.pdist[pe.P] = d
				sc.touched = append(sc.touched, pe.P)
			} else if d < sc.pdist[pe.P] {
				sc.pdist[pe.P] = d
			}
		}
	}
}

// --- Hub-list merges (k-NN and closer-count) -------------------------------

// mergeRun iterates the (point, distance) candidates reachable through
// label's hubs in ascending distance order, calling visit once per distinct
// point with its exact distance. visit returns false to stop. bound, when
// finite, stops the merge at the first candidate >= bound.
func (idx *Index) mergeRun(sc *qscratch, st *QueryStats, label []Entry, bound float64, visit func(p points.PointID, d float64) bool) {
	sc.beginMerge()
	sc.lists = sc.lists[:0]
	sc.labelDist = sc.labelDist[:0]
	st.Entries += int64(len(label))
	for _, e := range label {
		list := idx.bwd[e.Hub]
		if len(list) == 0 {
			continue
		}
		key := e.Dist + list[0].D
		if key >= bound {
			continue // ascending list: nothing under the bound
		}
		li := int32(len(sc.lists))
		sc.lists = append(sc.lists, list)
		sc.labelDist = append(sc.labelDist, e.Dist)
		sc.heap.Push(cursor{list: li, pos: 0}, key)
	}
	//lint:ignore vetrnn/execpoll in-memory merge over resident label lists; the query loops driving it poll via ec.Check
	for {
		cur, key, ok := sc.heap.Pop()
		if !ok || key >= bound {
			return
		}
		st.Entries++
		list := sc.lists[cur.list]
		pe := list[cur.pos]
		if next := cur.pos + 1; int(next) < len(list) {
			if nk := sc.labelDist[cur.list] + list[next].D; nk < bound {
				sc.heap.Push(cursor{list: cur.list, pos: next}, nk)
			}
		}
		if sc.mark[pe.P] == sc.mep {
			continue // a closer occurrence already decided this point
		}
		sc.mark[pe.P] = sc.mep
		if !visit(pe.P, key) {
			return
		}
	}
}

// topK returns the k nearest points of node n (by outgoing distance),
// excluding skip, ascending (distance, id).
func (idx *Index) topK(sc *qscratch, st *QueryStats, n graph.NodeID, k int, skip points.PointID) ([]pointEnt, error) {
	var err error
	if sc.lab1, err = idx.src.OutLabel(n, sc.lab1); err != nil {
		return nil, err
	}
	st.LabelReads++
	out := make([]pointEnt, 0, k)
	idx.mergeRun(sc, st, sc.lab1, math.Inf(1), func(p points.PointID, d float64) bool {
		if p == skip {
			return true
		}
		out = append(out, pointEnt{P: p, D: d})
		return len(out) < k
	})
	return out, nil
}

// countCloser counts points strictly closer to node n than bound (by
// outgoing distance), excluding skipA/skipB, stopping at k — the exact
// phase-2 fallback and the bichromatic verifier. The label is L_out(n),
// already fetched by the caller.
func (idx *Index) countCloser(sc *qscratch, st *QueryStats, label []Entry, bound float64, k int, skipA, skipB points.PointID) int {
	count := 0
	idx.mergeRun(sc, st, label, bound, func(p points.PointID, d float64) bool {
		if p == skipA || p == skipB {
			return true
		}
		count++
		return count < k
	})
	return count
}

// --- Queries ---------------------------------------------------------------

func (idx *Index) checkQuery(q graph.NodeID, k int) error {
	if k < 1 {
		return fmt.Errorf("hublabel: k must be >= 1, got %d", k)
	}
	if q < 0 || int(q) >= idx.src.NumNodes() {
		return fmt.Errorf("hublabel: node %d out of range [0,%d)", q, idx.src.NumNodes())
	}
	return nil
}

// checkRoute is checkQuery for the source locations of a route query.
func (idx *Index) checkRoute(route []graph.NodeID, k int) error {
	if len(route) == 0 {
		return fmt.Errorf("hublabel: query needs at least one source location")
	}
	for _, n := range route {
		if err := idx.checkQuery(n, k); err != nil {
			return err
		}
	}
	return nil
}

// RkNNExec answers a monochromatic reverse k-NN query from node q, hiding
// point hidden (points.NoPoint hides nothing); k must not exceed MaxK. It
// is the one-node case of ContinuousRkNNExec: the intersection path polls
// ec between label fetches and per decided point, abandoning the query with
// a typed exec error (cancellation, deadline, I/O budget). A nil ec is
// unbounded.
func (idx *Index) RkNNExec(ec *exec.Ctx, q graph.NodeID, k int, hidden points.PointID) ([]points.PointID, QueryStats, error) {
	return idx.ContinuousRkNNExec(ec, []graph.NodeID{q}, k, hidden)
}

// ContinuousRkNNExec answers the route variant under ec: the union of RkNN
// over every route node, decided against d(p→route) = min over route nodes.
func (idx *Index) ContinuousRkNNExec(ec *exec.Ctx, route []graph.NodeID, k int, hidden points.PointID) ([]points.PointID, QueryStats, error) {
	var st QueryStats
	if err := idx.checkRoute(route, k); err != nil {
		return nil, st, err
	}
	if k > idx.maxK {
		return nil, st, fmt.Errorf("hublabel: k=%d exceeds materialized maxK=%d", k, idx.maxK)
	}
	if err := ec.Check(0); err != nil {
		return nil, st, err
	}
	sc := idx.acquire()
	defer idx.release(sc)
	sc.beginRelax()
	var err error
	for _, n := range route {
		if sc.lab1, err = idx.src.InLabel(n, sc.lab1); err != nil {
			return nil, st, err
		}
		st.LabelReads++
		if err := ec.Check(0); err != nil {
			return nil, st, err
		}
		idx.relax(sc, &st, sc.lab1)
	}
	// decide carries its partial result on an execution-control error and
	// returns nil on real failures; pass both through unchanged.
	res, err := idx.decide(ec, sc, &st, k, hidden)
	return res, st, err
}

// decide runs phase 2 over the touched points of sc. On an
// execution-control error the members confirmed so far ride along with it
// (the partial-result contract of the engine layer); a label I/O error
// invalidates the result.
func (idx *Index) decide(ec *exec.Ctx, sc *qscratch, st *QueryStats, k int, hidden points.PointID) ([]points.PointID, error) {
	var res []points.PointID
	for _, p := range sc.touched {
		if err := ec.Check(0); err != nil {
			slices.Sort(res)
			return res, err
		}
		if p == hidden || idx.nodes[p] < 0 {
			continue
		}
		dq := sc.pdist[p]
		member, certain := idx.thresholdTest(st, p, dq, k, hidden)
		if !certain {
			// An excluded point occupied a stored slot and dq lies beyond
			// the list: recount exactly.
			st.Fallbacks++
			var err error
			if sc.lab2, err = idx.src.OutLabel(idx.nodes[p], sc.lab2); err != nil {
				return nil, err
			}
			st.LabelReads++
			member = idx.countCloser(sc, st, sc.lab2, dq, k, p, hidden) < k
		}
		if member {
			ec.Emit(int32(p), 0)
			res = append(res, p)
		}
	}
	slices.Sort(res)
	return res, nil
}

// thresholdTest decides membership of p at query distance dq against the
// materialized thresholds. certain is false when the stored list cannot
// prove the answer (only possible when hidden removed a stored entry).
func (idx *Index) thresholdTest(st *QueryStats, p points.PointID, dq float64, k int, hidden points.PointID) (member, certain bool) {
	t := idx.thr[p]
	st.Entries += int64(len(t))
	strict := 0
	removed := false
	for _, e := range t {
		if e.P == hidden {
			removed = true
			continue
		}
		if e.D < dq {
			strict++
		}
	}
	if strict >= k {
		return false, true
	}
	if len(t) < idx.maxK {
		return true, true // the list is the complete neighbor set
	}
	if dq <= t[len(t)-1].D {
		return true, true // unstored neighbors are all >= last >= dq
	}
	if !removed {
		// Full list, dq beyond it, nothing hidden: every stored entry is
		// strictly closer, so strict == maxK >= k was caught above.
		return true, true
	}
	return false, false
}

// VerifyMember decides whether point p is a reverse k-nearest neighbor of
// the query (one node, or the nodes of a route) with the arithmetic of
// RkNNExec / ContinuousRkNNExec, nothing hidden: d(p→query) is the smallest
// L_out(p) ∩ L_in(query node) sum, membership the threshold test for
// k <= MaxK and the exact closer-count beyond. An id that names no live
// point is no member. ec is polled per query-side label fetch.
func (idx *Index) VerifyMember(ec *exec.Ctx, query []graph.NodeID, k int, p points.PointID) (bool, QueryStats, error) {
	var st QueryStats
	if err := idx.checkRoute(query, k); err != nil {
		return false, st, err
	}
	pn, ok := idx.NodeOf(p)
	if !ok {
		return false, st, nil
	}
	sc := idx.acquire()
	defer idx.release(sc)
	var err error
	if sc.lab2, err = idx.src.OutLabel(pn, sc.lab2); err != nil {
		return false, st, err
	}
	st.LabelReads++
	st.Entries += int64(len(sc.lab2))
	dq := math.Inf(1)
	for _, n := range query {
		if err := ec.Check(0); err != nil {
			return false, st, err
		}
		if sc.lab1, err = idx.src.InLabel(n, sc.lab1); err != nil {
			return false, st, err
		}
		st.LabelReads++
		st.Entries += int64(len(sc.lab1))
		dq = min(dq, mergeDist(sc.lab2, sc.lab1))
	}
	if math.IsInf(dq, 1) {
		return false, st, nil // p cannot reach the query
	}
	if k > idx.maxK {
		st.Fallbacks++
		return idx.countCloser(sc, &st, sc.lab2, dq, k, p, points.NoPoint) < k, st, nil
	}
	member, _ := idx.thresholdTest(&st, p, dq, k, points.NoPoint)
	return member, st, nil
}

// BichromaticRkNNExec answers bRkNN(q) over the site set the index was
// built on: the candidates of cands with fewer than k sites strictly closer
// than the query. hiddenSite excludes one site (points.NoPoint for none); k
// is unbounded (thresholds are not used). ec is polled once per classified
// candidate.
func (idx *Index) BichromaticRkNNExec(ec *exec.Ctx, cands points.NodeView, q graph.NodeID, k int, hiddenSite points.PointID) ([]points.PointID, QueryStats, error) {
	var st QueryStats
	if err := idx.checkQuery(q, k); err != nil {
		return nil, st, err
	}
	if err := ec.Check(0); err != nil {
		return nil, st, err
	}
	sc := idx.acquire()
	defer idx.release(sc)
	var err error
	if sc.lab1, err = idx.src.InLabel(q, sc.lab1); err != nil {
		return nil, st, err
	}
	st.LabelReads++
	var res []points.PointID
	for _, c := range cands.Points() {
		if err := ec.Check(0); err != nil {
			slices.Sort(res)
			return res, st, err
		}
		cnode, ok := cands.NodeOf(c)
		if !ok {
			continue
		}
		if sc.lab2, err = idx.src.OutLabel(cnode, sc.lab2); err != nil {
			return nil, st, err
		}
		st.LabelReads++
		st.Entries += int64(len(sc.lab2))
		dcq := mergeDist(sc.lab2, sc.lab1)
		if math.IsInf(dcq, 1) {
			continue // cannot reach the query: never a member
		}
		if idx.countCloser(sc, &st, sc.lab2, dcq, k, hiddenSite, points.NoPoint) < k {
			ec.Emit(int32(c), 0)
			res = append(res, c)
		}
	}
	slices.Sort(res)
	return res, st, nil
}

// --- Maintenance -----------------------------------------------------------

// Insert adds point p on node n and incrementally repairs the hub lists and
// thresholds. p must be an unused id; ids beyond the current range extend
// the index (point sets assign ids append-only, and trailing deleted ids
// may leave the index shorter than the set's id space). Requires exclusive
// access.
func (idx *Index) Insert(p points.PointID, n graph.NodeID) (QueryStats, error) {
	var st QueryStats
	if p < 0 {
		return st, fmt.Errorf("hublabel: negative point id %d", p)
	}
	if int(p) < len(idx.nodes) && idx.nodes[p] >= 0 {
		return st, fmt.Errorf("hublabel: point %d already exists", p)
	}
	if n < 0 || int(n) >= idx.src.NumNodes() {
		return st, fmt.Errorf("hublabel: node %d out of range [0,%d)", n, idx.src.NumNodes())
	}
	sc := idx.acquire()
	defer idx.release(sc)

	var err error
	if sc.lab1, err = idx.src.OutLabel(n, sc.lab1); err != nil {
		return st, err
	}
	st.LabelReads++
	for len(idx.nodes) <= int(p) {
		idx.nodes = append(idx.nodes, -1)
		idx.thr = append(idx.thr, nil)
	}
	idx.nodes[p] = n
	idx.live++
	sc.grow(len(idx.nodes))
	for _, e := range sc.lab1 {
		idx.fwd[e.Hub] = insertSorted(idx.fwd[e.Hub], pointEnt{P: p, D: e.Dist})
		st.Entries++
	}
	if idx.src.Directed() {
		if sc.lab1, err = idx.src.InLabel(n, sc.lab1); err != nil {
			return st, err
		}
		st.LabelReads++
		for _, e := range sc.lab1 {
			idx.bwd[e.Hub] = insertSorted(idx.bwd[e.Hub], pointEnt{P: p, D: e.Dist})
			st.Entries++
		}
	}
	// The new point's own thresholds.
	t, err := idx.topK(sc, &st, n, idx.maxK, p)
	if err != nil {
		return st, err
	}
	idx.thr[p] = t

	// Existing points now have one more potential neighbor: fold d(p'→p)
	// into every affected threshold list with one reverse pass.
	if sc.lab1, err = idx.src.InLabel(n, sc.lab1); err != nil {
		return st, err
	}
	st.LabelReads++
	sc.beginRelax()
	idx.relax(sc, &st, sc.lab1)
	for _, p2 := range sc.touched {
		if p2 == p || idx.nodes[p2] < 0 {
			continue
		}
		d := sc.pdist[p2]
		t := idx.thr[p2]
		if len(t) >= idx.maxK && d >= t[len(t)-1].D {
			continue // outside the stored horizon: invariant unchanged
		}
		t = insertSorted(t, pointEnt{P: p, D: d})
		if len(t) > idx.maxK {
			t = t[:idx.maxK]
		}
		idx.thr[p2] = t
	}
	return st, nil
}

// Delete removes point p, repairing hub lists and recomputing the
// thresholds that stored it. Requires exclusive access.
func (idx *Index) Delete(p points.PointID) (QueryStats, error) {
	var st QueryStats
	n, ok := idx.NodeOf(p)
	if !ok {
		return st, fmt.Errorf("hublabel: point %d does not exist", p)
	}
	sc := idx.acquire()
	defer idx.release(sc)

	var err error
	if sc.lab1, err = idx.src.OutLabel(n, sc.lab1); err != nil {
		return st, err
	}
	st.LabelReads++
	for _, e := range sc.lab1 {
		idx.fwd[e.Hub] = removePoint(idx.fwd[e.Hub], p)
		st.Entries++
	}
	if idx.src.Directed() {
		if sc.lab1, err = idx.src.InLabel(n, sc.lab1); err != nil {
			return st, err
		}
		st.LabelReads++
		for _, e := range sc.lab1 {
			idx.bwd[e.Hub] = removePoint(idx.bwd[e.Hub], p)
			st.Entries++
		}
	}
	idx.nodes[p] = -1
	idx.live--

	// Points that stored p among their thresholds lose an entry and must
	// refill from the (already repaired) hub lists.
	for p2 := range idx.thr {
		if idx.nodes[p2] < 0 {
			continue
		}
		t := idx.thr[p2]
		st.Entries += int64(len(t))
		hit := -1
		for i, e := range t {
			if e.P == p {
				hit = i
				break
			}
		}
		if hit < 0 {
			continue
		}
		nt, err := idx.topK(sc, &st, idx.nodes[p2], idx.maxK, points.PointID(p2))
		if err != nil {
			return st, err
		}
		idx.thr[p2] = nt
	}
	idx.thr[p] = nil
	return st, nil
}

// insertSorted inserts e into a (D, P)-ascending list.
func insertSorted(l []pointEnt, e pointEnt) []pointEnt {
	i := sort.Search(len(l), func(i int) bool {
		if l[i].D != e.D {
			return l[i].D > e.D
		}
		return l[i].P > e.P
	})
	l = append(l, pointEnt{})
	copy(l[i+1:], l[i:])
	l[i] = e
	return l
}

// removePoint deletes the entry of p from a hub list.
func removePoint(l []pointEnt, p points.PointID) []pointEnt {
	for i, e := range l {
		if e.P == p {
			return append(l[:i], l[i+1:]...)
		}
	}
	return l
}

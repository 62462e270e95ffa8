package hublabel

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"graphrnn/internal/core"
	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
)

// Index is the ReHub-style reverse side of a labeling: every hub carries the
// list of data points it covers, annotated with the point↔hub distance, so
// that a pass over the hub lists of a query label yields the distance from
// the data points to the query — no network expansion at all.
//
// Queries run in two phases. Phase 1 intersects the query's backward label
// with the forward hub lists, producing d(p→q) for every point p that can
// still be a member. It rests on one lemma: thr[p] holds the maxK+1 nearest
// other points of p and reach(p) is the distance of the last of them, so
// when d(p→q) > reach(p) all maxK+1 are strictly closer to p than the query
// is, at most one of them is hidden (all a points.HiddenPointView can hide),
// and p belongs to no answer at any k <= maxK — of a node, or of a route,
// whose distance is the minimum over its nodes. Every forward hub-list entry
// therefore carries, next to its point, a bound M on the largest reach among
// itself and its successors. The lists ascend by distance, so along a list
// the sum d(p→h) + d(h→q) only rises while M only falls: the scan of a list
// ends at the first entry whose sum exceeds its bound, and before that skips
// every entry whose sum exceeds its own point's reach. Both tests compare
// the very float64 sum that becomes the query distance, so pruning is
// epsilon-free and the answer bit-identical to an unpruned scan.
//
// The invariant is M[i] >= max reach(list[i:]) for every list at every
// moment a query can run. A bound that errs upwards only scans further; one
// that errs downwards drops members — a wrong answer, not a slow one — which
// is why the float32 M is rounded up and why maintenance raises bounds before
// the first scan that depends on them. Insert and Delete keep the bounds
// exact, so a maintained index equals NewIndex over the surviving points
// field for field.
//
// Phase 2 decides membership |{p' ≠ p : d(p→p') < d(p→q)}| < k by counting
// in thr[p]. With maxK+1 slots and at most one hidden point the count is
// always conclusive: a shorter list is the complete neighbor set, a query
// distance within the last slot leaves every unstored point at least as far
// as the query, and a query distance beyond it makes maxK visible points
// strictly closer. Both phases touch only label entries and hub lists; the
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
	// for h ∈ L_in(p), by hub id, each list ascending (distance, id).
	// Undirected labelings share one table. Only fwd entries carry a reach
	// bound M (phase 1 scans nothing else).
	fwd, bwd [][]pointEnt

	// thr[p] holds the up-to-maxK+1 nearest other points of p by outgoing
	// distance, ascending (distance, id) — the materialized k-NN
	// thresholds. reach[p] is the distance of slot maxK+1, +Inf while the
	// list is shorter (nothing may be pruned on it) and for dead ids.
	thr   [][]pointEnt
	reach []float64

	scratch sync.Pool // *qscratch
}

// pointEnt pairs a point with a distance. On a forward hub list M bounds the
// reach of the entry's point and of every point after it from above; it
// lives in what would be padding, and is zero everywhere else.
type pointEnt struct {
	P points.PointID
	M float32
	D float64
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
	sc := idx.acquire()
	defer idx.release(sc)
	var st core.Stats
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
		out, in, err := idx.fetchLabels(sc, &st, p.Node)
		if err != nil {
			return nil, err
		}
		for _, e := range out {
			idx.fwd[e.Hub] = append(idx.fwd[e.Hub], pointEnt{P: p.P, D: e.Dist})
		}
		if src.Directed() {
			for _, e := range in {
				idx.bwd[e.Hub] = append(idx.bwd[e.Hub], pointEnt{P: p.P, D: e.Dist})
			}
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
	// Materialize thresholds once the lists are complete, then the bounds
	// once every reach is known.
	idx.thr = make([][]pointEnt, len(idx.nodes))
	idx.reach = make([]float64, len(idx.nodes))
	for p, n := range idx.nodes {
		idx.reach[p] = math.Inf(1)
		if n < 0 {
			continue
		}
		label, err := idx.outLabel(sc, &st, n)
		if err != nil {
			return nil, err
		}
		idx.thr[p] = idx.topK(sc, &st, label, idx.slots(), points.PointID(p))
		idx.reach[p] = idx.reachOf(idx.thr[p])
	}
	for _, l := range idx.fwd {
		for i := len(l) - 1; i >= 0; i-- {
			l[i].M = idx.boundAt(l, i)
		}
	}
	return idx, nil
}

// cmpEnt orders hub-list and threshold entries by (distance, id).
func cmpEnt(a, b pointEnt) int {
	if c := cmp.Compare(a.D, b.D); c != 0 {
		return c
	}
	return cmp.Compare(a.P, b.P)
}

func sortList(l []pointEnt) { slices.SortFunc(l, cmpEnt) }

// search returns the position of e in a (D, P)-ascending list, or the one
// it would be inserted at. A repair runs it once per hub of every point it
// touches — a third of its time through slices.BinarySearchFunc and cmpEnt,
// hence the loop.
func search(l []pointEnt, e pointEnt) int {
	lo, hi := 0, len(l)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid].D < e.D || l[mid].D == e.D && l[mid].P < e.P {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// --- Reach bounds ----------------------------------------------------------

// reachOf returns the reach a threshold list certifies: the distance of slot
// maxK+1, +Inf while the list is shorter.
func (idx *Index) reachOf(t []pointEnt) float64 {
	if len(t) <= idx.maxK {
		return math.Inf(1)
	}
	return t[idx.maxK].D
}

// slots returns the length a threshold list is cut to, maxK+1, saturating
// where a huge maxK would wrap around.
func (idx *Index) slots() int { return max(idx.maxK, idx.maxK+1) }

// up32 rounds x up to a float32: a bound may exceed the reach it covers,
// never fall below it.
func up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// boundAt returns what l[i].M must be: the larger of the entry's own reach
// and its successor's bound.
func (idx *Index) boundAt(l []pointEnt, i int) float32 {
	m := up32(idx.reach[l[i].P])
	if i+1 < len(l) {
		m = max(m, l[i+1].M)
	}
	return m
}

// rebound restores the bounds of l[:from+1] after the entry at from was
// inserted, lost its successor or had its point's reach move. Below from it
// stops at the first bound that comes out as stored: the entries before it
// see the rest of the list through that value alone.
func (idx *Index) rebound(l []pointEnt, from int) {
	for i := from; i >= 0; i-- {
		m := idx.boundAt(l, i)
		if i < from && l[i].M == m {
			return
		}
		l[i].M = m
	}
}

// reboundPoint restores the bounds of every hub list p is on after reach[p]
// moved; label is L_out of p's node.
func (idx *Index) reboundPoint(p points.PointID, label []Entry) {
	for _, e := range label {
		l := idx.fwd[e.Hub]
		idx.rebound(l, search(l, pointEnt{P: p, D: e.Dist}))
	}
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
// d(p→q) candidates dph + dhq — as far as the reach bounds let a point still
// be a member (see Index). It leaves exactly {p : d(p→q) <= reach(p)}
// touched, each at its exact distance: the smallest sum of a touched point is
// no larger than the one that touched it, so it is never skipped nor behind
// a stop.
func (idx *Index) relax(sc *qscratch, st *core.Stats, label []Entry) {
	st.LabelEntries += int64(len(label))
	reach := idx.reach
	for _, e := range label {
		list := idx.fwd[e.Hub]
		scanned := len(list)
		for i, pe := range list {
			d := pe.D + e.Dist
			if d > float64(pe.M) {
				scanned = i
				break // d rises and M falls from here on
			}
			if d > reach[pe.P] {
				continue
			}
			if sc.stamp[pe.P] != sc.ep {
				sc.stamp[pe.P] = sc.ep
				sc.pdist[pe.P] = d
				sc.touched = append(sc.touched, pe.P)
			} else if d < sc.pdist[pe.P] {
				sc.pdist[pe.P] = d
			}
		}
		st.LabelEntries += int64(scanned)
	}
}

// --- Hub-list merges (k-NN and closer-count) -------------------------------

// mergeRun iterates the (point, distance) candidates reachable through
// label's hubs in ascending distance order, calling visit once per distinct
// point with its exact distance. visit returns false to stop. bound, when
// finite, stops the merge at the first candidate >= bound.
func (idx *Index) mergeRun(sc *qscratch, st *core.Stats, label []Entry, bound float64, visit func(p points.PointID, d float64) bool) {
	sc.beginMerge()
	sc.lists = sc.lists[:0]
	sc.labelDist = sc.labelDist[:0]
	st.LabelEntries += int64(len(label))
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
	for {
		cur, key, ok := sc.heap.Pop()
		if !ok || key >= bound {
			return
		}
		st.LabelEntries++
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

// topK returns the k nearest points of a node (by outgoing distance; label
// is its L_out), excluding skip, ascending (distance, id). Candidates tied
// with the k-th are all collected before the cut, so the choice among them
// is by id, not by the order the merge happened to meet them in. The result
// never holds more than the live points, so they size it, not k.
func (idx *Index) topK(sc *qscratch, st *core.Stats, label []Entry, k int, skip points.PointID) []pointEnt {
	out := make([]pointEnt, 0, min(k, idx.live))
	idx.mergeRun(sc, st, label, math.Inf(1), func(p points.PointID, d float64) bool {
		if p == skip {
			return true
		}
		if len(out) >= k && d > out[k-1].D {
			return false
		}
		out = append(out, pointEnt{P: p, D: d})
		return true
	})
	sortList(out)
	return out[:min(k, len(out))]
}

// countCloser counts points strictly closer to node n than bound (by
// outgoing distance), excluding skip, stopping at k — the bichromatic
// verifier. The label is L_out(n), already fetched by the caller.
func (idx *Index) countCloser(sc *qscratch, st *core.Stats, label []Entry, bound float64, k int, skip points.PointID) int {
	count := 0
	idx.mergeRun(sc, st, label, bound, func(p points.PointID, d float64) bool {
		if p == skip {
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
func (idx *Index) RkNNExec(ec *exec.Ctx, q graph.NodeID, k int, hidden points.PointID) ([]points.PointID, core.Stats, error) {
	return idx.ContinuousRkNNExec(ec, []graph.NodeID{q}, k, hidden)
}

// ContinuousRkNNExec answers the route variant under ec: the union of RkNN
// over every route node, decided against d(p→route) = min over route nodes.
func (idx *Index) ContinuousRkNNExec(ec *exec.Ctx, route []graph.NodeID, k int, hidden points.PointID) ([]points.PointID, core.Stats, error) {
	var st core.Stats
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
	res, err := idx.decide(ec, sc, &st, k, hidden)
	return res, st, err
}

// decide runs phase 2 over the touched points of sc. On an
// execution-control error the members confirmed so far ride along with it
// (the partial-result contract of the engine layer).
func (idx *Index) decide(ec *exec.Ctx, sc *qscratch, st *core.Stats, k int, hidden points.PointID) ([]points.PointID, error) {
	var res []points.PointID
	for _, p := range sc.touched {
		if err := ec.Check(0); err != nil {
			slices.Sort(res)
			return res, err
		}
		if p == hidden || idx.nodes[p] < 0 {
			continue
		}
		if idx.thresholdTest(st, p, sc.pdist[p], k, hidden) {
			ec.Emit(int32(p), 0)
			res = append(res, p)
		}
	}
	slices.Sort(res)
	return res, nil
}

// thresholdTest decides membership of p at query distance dq, k <= maxK,
// by counting the visible stored neighbors strictly closer than dq. The
// count is conclusive in every case (see Index): it is exact unless dq lies
// beyond a full list, and there it is at least maxK.
func (idx *Index) thresholdTest(st *core.Stats, p points.PointID, dq float64, k int, hidden points.PointID) bool {
	t := idx.thr[p]
	st.LabelEntries += int64(len(t))
	strict := 0
	for _, e := range t {
		if e.D < dq && e.P != hidden {
			strict++
		}
	}
	return strict < k
}

// BichromaticRkNNExec answers bRkNN(q) over the site set the index was
// built on: the candidates of cands with fewer than k sites strictly closer
// than the query. hiddenSite excludes one site (points.NoPoint for none); k
// is unbounded (thresholds are not used). ec is polled once per classified
// candidate.
func (idx *Index) BichromaticRkNNExec(ec *exec.Ctx, cands points.NodeView, q graph.NodeID, k int, hiddenSite points.PointID) ([]points.PointID, core.Stats, error) {
	var st core.Stats
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
		st.LabelEntries += int64(len(sc.lab2))
		dcq := mergeDist(sc.lab2, sc.lab1)
		if math.IsInf(dcq, 1) {
			continue // cannot reach the query: never a member
		}
		if idx.countCloser(sc, &st, sc.lab2, dcq, k, hiddenSite) < k {
			ec.Emit(int32(c), 0)
			res = append(res, c)
		}
	}
	slices.Sort(res)
	return res, st, nil
}

// --- Maintenance -----------------------------------------------------------

// outLabel reads L_out(n) into the scratch for a maintenance step.
func (idx *Index) outLabel(sc *qscratch, st *core.Stats, n graph.NodeID) ([]Entry, error) {
	var err error
	if sc.lab1, err = idx.src.OutLabel(n, sc.lab1); err != nil {
		return nil, err
	}
	st.LabelReads++
	return sc.lab1, nil
}

// fetchLabels reads L_out(n) and L_in(n) into the scratch — one label under
// both names when the labeling is undirected. Insert and Delete call it for
// their own point before anything moves, so a failed read leaves the index
// as it was.
func (idx *Index) fetchLabels(sc *qscratch, st *core.Stats, n graph.NodeID) (out, in []Entry, err error) {
	if out, err = idx.outLabel(sc, st, n); err != nil || !idx.src.Directed() {
		return out, out, err
	}
	if sc.lab2, err = idx.src.InLabel(n, sc.lab2); err != nil {
		return nil, nil, err
	}
	st.LabelReads++
	return out, sc.lab2, nil
}

// Insert adds point p on node n and incrementally repairs the hub lists,
// their bounds and the thresholds. p must be an unused id; ids beyond the
// current range extend the index (point sets assign ids append-only, and
// trailing deleted ids may leave the index shorter than the set's id
// space). Requires exclusive access.
func (idx *Index) Insert(p points.PointID, n graph.NodeID) (core.Stats, error) {
	var st core.Stats
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
	out, in, err := idx.fetchLabels(sc, &st, n)
	if err != nil {
		return st, err
	}

	for len(idx.nodes) <= int(p) {
		idx.nodes = append(idx.nodes, -1)
		idx.thr = append(idx.thr, nil)
		idx.reach = append(idx.reach, math.Inf(1))
	}
	sc.grow(len(idx.nodes))
	// The new point joins the lists with its thresholds known and its reach
	// folded into their bounds: the reverse pass below already scans them.
	idx.thr[p] = idx.topK(sc, &st, out, idx.slots(), p)
	idx.reach[p] = idx.reachOf(idx.thr[p])
	idx.nodes[p] = n
	idx.live++
	st.LabelEntries += int64(len(out))
	for _, e := range out {
		ent := pointEnt{P: p, D: e.Dist}
		i := search(idx.fwd[e.Hub], ent)
		idx.fwd[e.Hub] = slices.Insert(idx.fwd[e.Hub], i, ent)
		idx.rebound(idx.fwd[e.Hub], i)
	}
	if idx.src.Directed() {
		st.LabelEntries += int64(len(in))
		for _, e := range in {
			ent := pointEnt{P: p, D: e.Dist}
			idx.bwd[e.Hub] = slices.Insert(idx.bwd[e.Hub], search(idx.bwd[e.Hub], ent), ent)
		}
	}

	// Existing points have one more potential neighbor. The pruned reverse
	// pass yields {p2 : d(p2→p) <= reach(p2)}, a superset of the threshold
	// lists p enters. Their reaches can only shrink, so until the bounds
	// follow — one label fetch per moved point — they err upwards.
	sc.beginRelax()
	idx.relax(sc, &st, in)
	moved := sc.touched[:0] // compacted in place behind the read position
	for _, p2 := range sc.touched {
		if p2 == p {
			continue
		}
		ent := pointEnt{P: p, D: sc.pdist[p2]}
		i := search(idx.thr[p2], ent)
		if i > idx.maxK {
			continue // outside the stored horizon: nothing changes
		}
		t := slices.Insert(idx.thr[p2], i, ent)
		idx.thr[p2] = t[:min(len(t), idx.slots())]
		if r := idx.reachOf(idx.thr[p2]); r != idx.reach[p2] {
			idx.reach[p2] = r
			moved = append(moved, p2)
		}
	}
	for _, p2 := range moved {
		label, err := idx.outLabel(sc, &st, idx.nodes[p2])
		if err != nil {
			return st, err
		}
		st.LabelEntries += int64(len(label))
		idx.reboundPoint(p2, label)
	}
	return st, nil
}

// Delete removes point p, repairing hub lists and bounds and refilling the
// thresholds that stored it. Requires exclusive access.
func (idx *Index) Delete(p points.PointID) (core.Stats, error) {
	var st core.Stats
	n, ok := idx.NodeOf(p)
	if !ok {
		return st, fmt.Errorf("hublabel: point %d does not exist", p)
	}
	sc := idx.acquire()
	defer idx.release(sc)
	out, in, err := idx.fetchLabels(sc, &st, n)
	if err != nil {
		return st, err
	}

	// A point that stores p has it within its reach, so the pruned reverse
	// pass — run before anything moves — finds every one of them.
	sc.beginRelax()
	idx.relax(sc, &st, in)
	holders := sc.touched[:0] // compacted in place behind the read position
	for _, p2 := range sc.touched {
		st.LabelEntries += int64(len(idx.thr[p2]))
		if slices.ContainsFunc(idx.thr[p2], func(e pointEnt) bool { return e.P == p }) {
			holders = append(holders, p2)
		}
	}

	st.LabelEntries += int64(len(out))
	for _, e := range out {
		l := idx.fwd[e.Hub]
		i := search(l, pointEnt{P: p, D: e.Dist})
		idx.fwd[e.Hub] = slices.Delete(l, i, i+1)
		idx.rebound(idx.fwd[e.Hub], i-1)
	}
	if idx.src.Directed() {
		st.LabelEntries += int64(len(in))
		for _, e := range in {
			l := idx.bwd[e.Hub]
			i := search(l, pointEnt{P: p, D: e.Dist})
			idx.bwd[e.Hub] = slices.Delete(l, i, i+1)
		}
	}
	idx.nodes[p] = -1
	idx.live--
	idx.thr[p] = nil
	idx.reach[p] = math.Inf(1)

	// The holders refill from the repaired lists; a reach that grew raises
	// the bounds of its point's lists with the label the refill just used.
	for _, p2 := range holders {
		label, err := idx.outLabel(sc, &st, idx.nodes[p2])
		if err != nil {
			return st, err
		}
		idx.thr[p2] = idx.topK(sc, &st, label, idx.slots(), p2)
		if r := idx.reachOf(idx.thr[p2]); r != idx.reach[p2] {
			idx.reach[p2] = r
			idx.reboundPoint(p2, label)
		}
	}
	return st, nil
}

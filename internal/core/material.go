package core

import (
	"fmt"
	"math"
	"sort"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
	"graphrnn/internal/storage"
)

// This file implements the materialization scheme of Section 4.1: for every
// network node, the K nearest data points are precomputed by the all-NN
// algorithm (Fig 8) and stored in a paged file; eager-M answers queries from
// these lists, and object insertions/deletions maintain them incrementally
// (Figs 10-11).
//
// Two deviations from the paper:
//
//  1. Lists store K+1 entries. A node's own point appears in its list at
//     distance 0, so exposing the "k-th NN of the node containing p,
//     excluding p itself" (needed to verify p) requires one extra entry.
//     The spare entry also absorbs the point hidden by the query-exclusion
//     view of the experimental workloads.
//
//  2. Entries are kept in canonical (distance, point id) lexicographic
//     order and every acceptance test uses that order. This makes the
//     "K-NN lists are closed under shortest-path prefixes" lemma — the
//     correctness basis of the border-node deletion algorithm — hold even
//     under distance ties (frequent on unit-weight graphs), and makes
//     maintenance results bit-identical to a from-scratch rebuild.

// MatEntry is one materialized list entry: a data point and its exact
// network distance from the list's node — what a range-NN probe of the
// node would report, so eager reads either into the same buffer.
type MatEntry = PointDist

func entryLess(d1 graph.Dist, p1 points.PointID, d2 graph.Dist, p2 points.PointID) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return p1 < p2
}

// Materialized holds the per-node K-NN lists in a paged file read through
// an LRU buffer, so that list accesses and maintenance writes are counted
// as I/O exactly like adjacency accesses (the paper's Fig 18 and Fig 22
// measure precisely this traffic). The lists live for the process: a
// restart builds them again.
type Materialized struct {
	maxK     int // queries support k <= maxK; records hold maxK+1 entries
	cap      int // maxK + 1
	numNodes int
	q        float64 // the graph's quantum, which the records store distances over
	bm       *storage.Tenant
	refs     []storage.RecRef
	// repair is the in-flight maintenance operation, nil between
	// operations (maintenance requires exclusive access, so no lock).
	repair *matRepair
	// failWrites is a test seam: when positive it counts down on every
	// maintained list write and injects a failure at zero, so tests can
	// abandon a repair at an arbitrary write without a context.
	failWrites int
}

// matRepair is one maintenance operation: the before-image of every list
// the repair has touched, in touch order, from which an abandoned
// operation is rolled back.
type matRepair struct {
	before map[graph.NodeID][]MatEntry
	order  []graph.NodeID
}

// matRecordSize is the fixed size of a list record: a counted run of
// (point, distance) pairs zero-padded to cap entries, so maintenance
// rewrites it in place.
func matRecordSize(cap int) int { return 2 + cap*storage.PairSize }

// appendMatList appends entries to b as a counted run of pairs over the
// quantum q.
func appendMatList(b []byte, entries []MatEntry, q float64) []byte {
	b = storage.AppendCount(b, len(entries))
	for _, e := range entries {
		b = storage.AppendPair(b, int32(e.P), e.D, q)
	}
	return b
}

// DecodeMatList appends the entries of the counted run at the front of rec,
// its distances stored over the quantum q, to buf.
func DecodeMatList(rec []byte, buf []MatEntry, q float64) ([]MatEntry, error) {
	pairs, err := storage.CountedPairs(rec)
	if err != nil {
		return nil, err
	}
	for ; len(pairs) > 0; pairs = pairs[storage.PairSize:] {
		p, d := storage.Pair(pairs, q)
		buf = append(buf, MatEntry{P: points.PointID(p), D: d})
	}
	return buf, nil
}

// MaxK returns the largest query k the lists support.
func (m *Materialized) MaxK() int { return m.maxK }

// NumNodes returns the number of per-node lists.
func (m *Materialized) NumNodes() int { return m.numNodes }

// Buffer exposes the list file buffer manager.
func (m *Materialized) Buffer() *storage.Tenant { return m.bm }

// Close detaches the lists' buffer tenant from its pool, flushing dirty
// pages and returning any contributed capacity. The materialization must
// not be used afterwards; Close is idempotent.
func (m *Materialized) Close() error {
	if m.bm == nil {
		return nil
	}
	bm := m.bm
	m.bm = nil
	return bm.Detach()
}

// List appends the materialized entries of node n to buf in canonical
// order. The caller is responsible for counting Stats.MatReads.
func (m *Materialized) List(n graph.NodeID, buf []MatEntry) ([]MatEntry, error) {
	buf = buf[:0]
	if n < 0 || int(n) >= m.numNodes {
		return nil, fmt.Errorf("core: materialized list of node %d out of range [0,%d)", n, m.numNodes)
	}
	err := m.bm.ReadRecord(m.refs[n], func(rec []byte) (err error) {
		// Length before content: a corrupt page can hold a record shorter
		// than a list, which a maintenance write would then overrun.
		if len(rec) < matRecordSize(m.cap) {
			return fmt.Errorf("core: corrupt materialized record for node %d", n)
		}
		if buf, err = DecodeMatList(rec, buf, m.q); err != nil || len(buf) > m.cap {
			return fmt.Errorf("core: corrupt materialized record for node %d", n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// writeList overwrites the record of node n in place. It is the write path
// of the maintenance algorithms; restores bypass it (and the test fault
// seam) through restoreList.
func (m *Materialized) writeList(n graph.NodeID, entries []MatEntry) error {
	if m.failWrites > 0 {
		m.failWrites--
		if m.failWrites == 0 {
			return fmt.Errorf("core: injected list write fault at node %d", n)
		}
	}
	return m.restoreList(n, entries)
}

// InjectWriteFault arms the test seam: the countdown-th maintained list
// write fails. Zero disarms it. Internal test hook only.
func (m *Materialized) InjectWriteFault(countdown int) { m.failWrites = countdown }

func (m *Materialized) restoreList(n graph.NodeID, entries []MatEntry) error {
	if len(entries) > m.cap {
		return fmt.Errorf("core: %d entries exceed capacity %d", len(entries), m.cap)
	}
	ref := m.refs[n]
	return m.bm.Update(ref.Page, func(page []byte) error {
		rec, err := storage.ReadRecordSlot(page, int(ref.Slot))
		if err != nil {
			return err
		}
		if len(rec) < matRecordSize(m.cap) {
			return fmt.Errorf("core: corrupt materialized record for node %d", n)
		}
		appendMatList(rec[:0], entries, m.q) // in place: rec has room for cap entries
		return nil
	})
}

// Flush writes dirty list pages back to the file.
func (m *Materialized) Flush() error { return m.bm.Flush() }

// --- maintenance operations ------------------------------------------------
//
// Every MatInsert / MatDelete runs inside a repair operation framed by
// BeginRepair and CommitRepair. The operation records the before-image of
// each list the first time the repair touches it; an abandoned operation
// (cancellation, deadline, budget, I/O error) is undone by RollbackRepair,
// which restores the before-images and leaves the lists bit-identical to
// the pre-operation state.

// RepairPending reports whether an uncommitted maintenance operation is
// recorded: one in flight, or one whose rollback failed.
func (m *Materialized) RepairPending() bool { return m.repair != nil }

// BeginRepair opens a maintenance operation. It fails when an unrecovered
// operation is pending.
func (m *Materialized) BeginRepair() error {
	if m.RepairPending() {
		return fmt.Errorf("core: unrecovered maintenance operation pending; recover before mutating")
	}
	m.repair = &matRepair{before: make(map[graph.NodeID][]MatEntry)}
	return nil
}

// saveBefore records the before-image of node n's list the first time the
// active repair touches it. entries must be the list as read, before any
// in-place mutation.
func (m *Materialized) saveBefore(n graph.NodeID, entries []MatEntry) {
	r := m.repair
	if r == nil {
		return
	}
	if _, seen := r.before[n]; seen {
		return
	}
	r.before[n] = append([]MatEntry(nil), entries...)
	r.order = append(r.order, n)
}

// CommitRepair ends the operation, dropping its before-images.
func (m *Materialized) CommitRepair() { m.repair = nil }

// RollbackRepair undoes the pending maintenance operation by restoring
// every recorded before-image. It is idempotent — a rollback that fails
// midway can be retried — and a no-op when nothing is pending.
func (m *Materialized) RollbackRepair() error {
	r := m.repair
	if r == nil {
		return nil
	}
	for _, n := range r.order {
		if err := m.restoreList(n, r.before[n]); err != nil {
			return err
		}
	}
	m.repair = nil
	return nil
}

type matHeapEntry struct {
	node graph.NodeID
	p    points.PointID
}

// MatBuildBuffer runs the all-NN algorithm (Fig 8) and materializes, for
// every node, the maxK+1 nearest data points of ps in a single network
// expansion seeded at every point's anchors: the hosting node at distance 0
// or, for an edge-resident point, both endpoints of its edge at the direct
// offsets (Section 5.2: kNNs of edge points are derived from endpoint
// lists). The lists are packed into file (which must be empty) in the given
// node order (nil = node id order) and read back through bm, which must
// wrap file — typically a tenant of the process-wide buffer pool, so list
// pages share frames (and stats) with every other substrate.
//
// The expansion reads adjacency through s's graph, so a searcher over the
// in-memory graph builds without page I/O. It pops in (distance, push) order from a pq.Radix: every push
// is a popped distance plus a non-negative edge weight, never below the
// last pop, which is the radix queue's contract. The lists grow in place in
// one block of min(maxK+1, |ps|) entries a node, and pushes that provably
// cannot improve a list are filtered to keep the queue small.
func (s *Searcher) MatBuildBuffer(ps PointSet, maxK int, file storage.PagedFile, bm *storage.Tenant, order []graph.NodeID) (*Materialized, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("core: maxK must be >= 1, got %d", maxK)
	}
	if file.NumPages() != 0 {
		return nil, fmt.Errorf("core: MatBuildBuffer needs an empty file, got %d pages", file.NumPages())
	}
	if err := s.symmetricOnly("materialized K-NN lists"); err != nil {
		return nil, err
	}
	// A list of maxK+1 pairs must fit one page: asked before the record size
	// is multiplied out, where a huge maxK would wrap around.
	if most := (storage.MaxRecordPayload(file.PageSize()) - 2) / storage.PairSize; maxK >= most {
		return nil, fmt.Errorf("core: K=%d lists: page size %d cannot hold one list of K+1 entries (at most %d)",
			maxK, file.PageSize(), max(most, 0))
	}
	n := s.g.NumNodes()
	cap := maxK + 1
	w, err := storage.NewRecordWriter(file, matRecordSize(cap))
	if err != nil {
		return nil, fmt.Errorf("core: K=%d lists: %w", maxK, err)
	}

	// Node m's list is block[m*width:][:lens[m]]. No list holds more points
	// than there are, so width caps a huge maxK at |ps|, and a list full at
	// width < cap holds every point: matAccept then rejects or replaces
	// without dropping a tail, as it would at cap.
	ids := ps.ids()
	width := min(cap, len(ids))
	block := make([]MatEntry, n*width)
	lens := make([]int32, n)
	list := func(m graph.NodeID) []MatEntry {
		off := int(m) * width
		return block[off : off+int(lens[m]) : off+width]
	}

	var queue pq.Radix[matHeapEntry]
	var adj []graph.Edge
	for _, p := range ids {
		loc, ok := ps.loc(p)
		if !ok {
			continue
		}
		as, na, err := s.anchors(loc, &adj)
		if err != nil {
			return nil, err
		}
		for _, a := range as[:na] {
			queue.Push(matHeapEntry{a.node, p}, uint64(a.off))
		}
	}

	// worthPushing filters queue entries that cannot change list m.
	worthPushing := func(m graph.NodeID, p points.PointID, d graph.Dist) bool {
		if int(lens[m]) < width {
			return true
		}
		last := list(m)[width-1]
		return entryLess(d, p, last.D, last.P)
	}

	for {
		e, key, ok := queue.Pop()
		if !ok {
			break
		}
		d := graph.Dist(key)
		changed, lst := matAccept(list(e.node), e.p, d, width)
		if !changed {
			continue
		}
		lens[e.node] = int32(len(lst))
		var adjErr error
		if adj, adjErr = s.g.Adjacency(e.node, adj); adjErr != nil {
			return nil, adjErr
		}
		for _, edge := range adj {
			if nd := d + edge.W; worthPushing(edge.To, e.p, nd) {
				queue.Push(matHeapEntry{edge.To, e.p}, uint64(nd))
			}
		}
	}

	// Pack fixed-size records in the requested order.
	if order == nil {
		order = make([]graph.NodeID, n)
		for i := range order {
			order[i] = graph.NodeID(i)
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("core: order has %d nodes, graph has %d", len(order), n)
	}
	m := &Materialized{maxK: maxK, cap: cap, numNodes: n, q: math.Ldexp(1, s.g.LogQuantum()), refs: make([]storage.RecRef, n)}
	rec := make([]byte, matRecordSize(cap))
	for _, node := range order {
		used := appendMatList(rec[:0], list(node), m.q)
		clear(rec[len(used):])
		if m.refs[node], err = w.Add(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	m.bm = bm
	return m, nil
}

// MatInsert maintains the lists after new data point p appears at location
// at: a bounded expansion seeded at at's anchors inserts the point into
// every list it improves and stops at nodes it cannot improve (Section 4.1).
func (s *Searcher) MatInsert(m *Materialized, p points.PointID, at Loc) (st Stats, err error) {
	sc := s.acquire()
	defer s.release(&st, sc)
	if err := sc.seed(s, at); err != nil {
		return st, err
	}
	var lst []MatEntry
	for {
		ent, d, ok := sc.pop()
		if !ok {
			break
		}
		n := ent.node()
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return st, err
		}
		var err error
		lst, err = m.List(n, lst)
		if err != nil {
			return st, err
		}
		st.MatReads++
		// The before-image must be captured before matAccept mutates the
		// decoded entries in place.
		m.saveBefore(n, lst)
		changed, updated := matAccept(lst, p, d, m.cap)
		if !changed {
			continue // cannot improve: expansion stops here
		}
		if err := m.writeList(n, updated); err != nil {
			return st, err
		}
		sc.adj, err = s.g.Adjacency(n, sc.adj)
		if err != nil {
			return st, err
		}
		for _, e := range sc.adj {
			sc.pushNode(n, e.To, d+e.W)
		}
	}
	return st, nil
}

// matAccept applies the canonical acceptance rule to a decoded list,
// returning whether it changed and the updated entries (aliasing lst's
// backing array when possible). A point already present with an equal or
// better key is rejected; a present point with a worse key is replaced
// (defensive — the Dijkstra pop orders of the callers deliver minimal
// candidates first, so replacement should not arise in practice).
func matAccept(lst []MatEntry, p points.PointID, d graph.Dist, cap int) (bool, []MatEntry) {
	for i, e := range lst {
		if e.P != p {
			continue
		}
		if !entryLess(d, p, e.D, e.P) {
			return false, lst // present with an equal or better key
		}
		lst = append(lst[:i], lst[i+1:]...) // present with a worse key: replace
		break
	}
	idx := sort.Search(len(lst), func(i int) bool {
		return !entryLess(lst[i].D, lst[i].P, d, p)
	})
	if len(lst) == cap {
		if idx >= cap {
			return false, lst
		}
		lst = lst[:cap-1]
	}
	lst = append(lst, MatEntry{})
	copy(lst[idx+1:], lst[idx:])
	lst[idx] = MatEntry{P: p, D: d}
	return true, lst
}

// MatDelete maintains the lists after point p (which resided at location
// at) disappears, using the two-step border-node algorithm of
// Fig 10: step one expands over the affected nodes (those whose lists
// contain p), removing p; step two refills the vacated slots by propagating
// candidate entries inward from the border.
func (s *Searcher) MatDelete(m *Materialized, p points.PointID, at Loc) (st Stats, err error) {
	sc := s.acquire()
	defer s.release(&st, sc)
	if err := sc.seed(s, at); err != nil {
		return st, err
	}

	affected := make(map[graph.NodeID]bool)
	visitedStep1 := make([]graph.NodeID, 0, 16)
	var lst []MatEntry

	// Step 1: remove p from every affected list; stop at border nodes.
	for {
		ent, _, ok := sc.pop()
		if !ok {
			break
		}
		n := ent.node()
		st.NodesExpanded++
		if err := s.checkExec(&st); err != nil {
			return st, err
		}
		var err error
		lst, err = m.List(n, lst)
		if err != nil {
			return st, err
		}
		st.MatReads++
		m.saveBefore(n, lst)
		visitedStep1 = append(visitedStep1, n)
		found := -1
		for i, e := range lst {
			if e.P == p {
				found = i
				break
			}
		}
		if found < 0 {
			continue // border node: do not expand beyond it
		}
		affected[n] = true
		lst = append(lst[:found], lst[found+1:]...)
		if err := m.writeList(n, lst); err != nil {
			return st, err
		}
		sc.adj, err = s.g.Adjacency(n, sc.adj)
		if err != nil {
			return st, err
		}
		for _, e := range sc.adj {
			sc.pushNode(n, e.To, sc.dist[n]+e.W)
		}
	}
	if len(affected) == 0 {
		return st, nil
	}

	// Step 2 seeding: every step-1 node (border or affected) offers its
	// remaining entries to affected neighbours. The paper seeds only from
	// border nodes; affected-to-affected seeding additionally covers the
	// case where the replacement entry originates inside the affected
	// region (e.g. a point residing on an affected node).
	var heap pq.Heap[matHeapEntry]
	for _, a := range visitedStep1 {
		// Seeding reads one list page and one adjacency per node, so the
		// exec context must stay responsive here too; the reads are already
		// charged (MatReads, step 1's counters), so poll without re-charging.
		if err := s.checkExec(&st); err != nil {
			return st, err
		}
		var err error
		sc.adj, err = s.g.Adjacency(a, sc.adj)
		if err != nil {
			return st, err
		}
		hasAffectedNeighbor := false
		for _, e := range sc.adj {
			if affected[e.To] {
				hasAffectedNeighbor = true
				break
			}
		}
		if !hasAffectedNeighbor {
			continue
		}
		lst, err = m.List(a, lst)
		if err != nil {
			return st, err
		}
		st.MatReads++
		entries := append([]MatEntry(nil), lst...)
		for _, e := range sc.adj {
			if !affected[e.To] {
				continue
			}
			for _, ent := range entries {
				heap.Push(matHeapEntry{e.To, ent.P}, float64(ent.D+e.W))
			}
		}
	}

	// Step 2: propagate candidates in distance order; an accepted entry is
	// exact (first pop of a (node,point) pair carries the minimal
	// candidate distance) and is forwarded to the node's neighbours.
	for {
		e, key, ok := heap.Pop()
		if !ok {
			break
		}
		d := graph.Dist(key)
		st.NodesScanned++
		if err := s.checkExecStride(&st); err != nil {
			return st, err
		}
		var err error
		lst, err = m.List(e.node, lst)
		if err != nil {
			return st, err
		}
		st.MatReads++
		m.saveBefore(e.node, lst)
		changed, updated := matAccept(lst, e.p, d, m.cap)
		if !changed {
			continue
		}
		if err := m.writeList(e.node, updated); err != nil {
			return st, err
		}
		sc.adj, err = s.g.Adjacency(e.node, sc.adj)
		if err != nil {
			return st, err
		}
		for _, edge := range sc.adj {
			heap.Push(matHeapEntry{edge.To, e.p}, float64(d+edge.W))
		}
	}
	st.HeapPushes += int64(heap.PushCount)
	st.HeapPops += int64(heap.PopCount)
	return st, nil
}

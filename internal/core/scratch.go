package core

import (
	"sync"

	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
)

// The three kinds of entry the one walker heap carries. A node entry is
// labelled Dijkstra-style through the scratch arrays; a point arrival is a
// data point of an edge-resident set reached along its edge from a popped
// endpoint (or directly, when it shares the source's edge); a target
// arrival is the query location reached the same way. Arrivals are plain
// entries: a point is pushed from both endpoints of its edge, so its first
// pop carries the exact minimum distance (Fig 14's two bounds for d(q,p3))
// and the consumer drops the later ones.
const (
	kindNode uint8 = iota
	kindPoint
	kindTarget
)

// Which set a point arrival belongs to (bichromatic walks surface both).
const (
	setCand uint8 = iota
	setSite
)

// entry is one heap item. It packs to 8 bytes, so a pq slot stays the 24
// bytes it is for a bare node id. (One uint64 with shifted fields measured
// the same on expand_cold, so the plain struct stays.)
type entry struct {
	id   int32 // node id, or point id of an arrival
	kind uint8
	set  uint8
}

func (e entry) node() graph.NodeID    { return graph.NodeID(e.id) }
func (e entry) point() points.PointID { return points.PointID(e.id) }

// scratch holds the per-expansion state of one Dijkstra-style traversal:
// tentative distances, seen/closed stamps (epoch-based so that no O(|V|)
// clearing is needed between queries), the heap, and the buffers an
// expansion step reads into.
type scratch struct {
	dist   []float64
	seen   []uint32
	closed []uint32
	epoch  uint32
	heap   pq.Heap[entry]
	adj    []graph.Edge
	refs   []points.EdgePointRef
	// done holds the point arrivals a verification has already consumed;
	// made on the first arrival, so node-resident sets never pay for it.
	done map[points.PointID]struct{}
}

func newScratch(n int) *scratch {
	return &scratch{
		dist:   make([]float64, n),
		seen:   make([]uint32, n),
		closed: make([]uint32, n),
	}
}

// begin starts a fresh expansion.
func (sc *scratch) begin() {
	sc.epoch++
	if sc.epoch == 0 { // epoch wrapped: wipe stamps and restart
		for i := range sc.seen {
			sc.seen[i] = 0
			sc.closed[i] = 0
		}
		sc.epoch = 1
	}
	sc.heap.Reset()
	clear(sc.done)
}

func (sc *scratch) isSeen(n graph.NodeID) bool   { return sc.seen[n] == sc.epoch }
func (sc *scratch) isClosed(n graph.NodeID) bool { return sc.closed[n] == sc.epoch }

func (sc *scratch) close(n graph.NodeID) { sc.closed[n] = sc.epoch }

// pushNode offers node n at distance d, applying the lazy-deletion Dijkstra
// discipline: duplicates with worse labels are suppressed. It returns the
// heap handle when an entry was pushed, the zero Handle otherwise.
func (sc *scratch) pushNode(n graph.NodeID, d float64) pq.Handle {
	if sc.isClosed(n) {
		return 0
	}
	if sc.isSeen(n) && sc.dist[n] <= d {
		return 0
	}
	sc.seen[n] = sc.epoch
	sc.dist[n] = d
	return sc.heap.Push(entry{id: int32(n)}, d)
}

func (sc *scratch) pushPoint(set uint8, p points.PointID, d float64) {
	sc.heap.Push(entry{id: int32(p), kind: kindPoint, set: set}, d)
}

func (sc *scratch) pushTarget(d float64) {
	sc.heap.Push(entry{kind: kindTarget}, d)
}

// firstArrival records point arrival p and reports whether it is the
// first one this expansion sees.
func (sc *scratch) firstArrival(p points.PointID) bool {
	if _, dup := sc.done[p]; dup {
		return false
	}
	if sc.done == nil {
		sc.done = make(map[points.PointID]struct{})
	}
	sc.done[p] = struct{}{}
	return true
}

// pop removes the next entry in distance order; a node entry is closed on
// the way out and stale ones (nodes already closed) are skipped. ok is
// false when the heap is exhausted.
func (sc *scratch) pop() (e entry, d float64, ok bool) {
	for {
		e, d, ok = sc.heap.Pop()
		if !ok {
			return entry{}, 0, false
		}
		if e.kind == kindNode {
			if sc.isClosed(e.node()) {
				continue
			}
			sc.close(e.node())
		}
		return e, d, true
	}
}

// searchPools holds the shared per-query scratch pools of a Searcher, so
// that bounded views (Bound) alias the same pools instead of copying them.
type searchPools struct {
	scratch sync.Pool // *scratch, sized to g.NumNodes()
	counts  sync.Pool // *lazyCounts
	ep      sync.Pool // *epMarks
}

// Searcher executes RkNN queries against a graph. It
// owns a pool of scratch expansions (a main traversal plus the sub-queries
// it spawns) so that repeated queries rarely allocate. A Searcher is safe
// for concurrent use: every query draws its traversal state (scratch
// expansions, lazy counters) from sync.Pools, so independent queries never
// share mutable state. Mutating operations on a Materialized (MatInsert,
// MatDelete) still require exclusive access to that materialization.
//
// A Searcher built by NewSearcher runs queries to completion. Bound
// derives a view whose queries poll an exec.Ctx between expansion steps,
// which is how the engine layer threads cancellation, deadlines and work
// budgets through every algorithm without changing their signatures.
//
// The searcher holds both views of the network: g lists out-arcs and
// serves everything that measures distances *from* a location (range-NN,
// verification, KNN, Distance); in lists in-arcs and serves the walks that
// measure distances *to* one (the main expansions, lazy-EP's H'). On a
// symmetric network they are the same access.
type Searcher struct {
	g, in graph.Access
	pools *searchPools
	ec    *exec.Ctx // nil = unbounded
}

// NewSearcher creates a Searcher over g.
func NewSearcher(g graph.Access) *Searcher {
	s := &Searcher{g: g, in: g.In(), pools: &searchPools{}}
	s.pools.scratch.New = func() any { return newScratch(g.NumNodes()) }
	s.pools.counts.New = func() any { return &lazyCounts{} }
	s.pools.ep.New = func() any { return &epMarks{} }
	return s
}

// Bound returns a view of s whose queries check ec for cancellation,
// deadline expiry and budget exhaustion: once per main-expansion step, and
// every exec.CheckStride pops inside sub-expansions. The view shares s's
// scratch pools; a nil ec returns s itself (the unbounded view). Each
// query owns its ec, so a bound view serves exactly one query at a time.
func (s *Searcher) Bound(ec *exec.Ctx) *Searcher {
	if ec == nil {
		return s
	}
	return &Searcher{g: s.g, in: s.in, pools: s.pools, ec: ec}
}

// checkExec polls the query's execution context, charging the nodes popped
// so far. It is a nil check for unbounded queries.
func (s *Searcher) checkExec(st *Stats) error {
	if s.ec == nil {
		return nil
	}
	return s.ec.Check(st.NodesExpanded + st.NodesScanned)
}

// checkExecStride is checkExec at the sub-expansion polling interval: it
// runs the real check only every exec.CheckStride-th scanned node, keeping
// the hot sub-query loops nearly free of bookkeeping.
func (s *Searcher) checkExecStride(st *Stats) error {
	if s.ec == nil || st.NodesScanned&(exec.CheckStride-1) != 0 {
		return nil
	}
	return s.ec.Check(st.NodesExpanded + st.NodesScanned)
}

// acquire returns a scratch begun for a fresh expansion.
func (s *Searcher) acquire() *scratch {
	sc := s.pools.scratch.Get().(*scratch)
	sc.begin()
	return sc
}

// release adds the heap traffic of sc to st and returns it to the pool.
func (s *Searcher) release(st *Stats, sc *scratch) {
	st.HeapPushes += int64(sc.heap.PushCount)
	st.HeapPops += int64(sc.heap.PopCount)
	sc.heap.PushCount = 0
	sc.heap.PopCount = 0
	s.pools.scratch.Put(sc)
}

// acquireCounts returns lazy visit counters reset for a fresh query.
func (s *Searcher) acquireCounts() *lazyCounts {
	c := s.pools.counts.Get().(*lazyCounts)
	c.reset(s.g.NumNodes())
	return c
}

func (s *Searcher) releaseCounts(c *lazyCounts) {
	s.pools.counts.Put(c)
}

package core

import (
	"sync"

	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/pq"
)

// scratch holds the per-expansion state of one Dijkstra-style traversal:
// tentative distances, seen/closed stamps (epoch-based so that no O(|V|)
// clearing is needed between queries), a heap, and an adjacency buffer.
type scratch struct {
	dist   []float64
	seen   []uint32
	closed []uint32
	epoch  uint32
	heap   pq.Heap[graph.NodeID]
	adj    []graph.Edge
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
}

func (sc *scratch) isSeen(n graph.NodeID) bool   { return sc.seen[n] == sc.epoch }
func (sc *scratch) isClosed(n graph.NodeID) bool { return sc.closed[n] == sc.epoch }

func (sc *scratch) close(n graph.NodeID) { sc.closed[n] = sc.epoch }

// push offers node n at distance d, applying the lazy-deletion Dijkstra
// discipline: duplicates with worse labels are suppressed. It returns the
// heap handle when an entry was pushed, the zero Handle otherwise.
func (sc *scratch) push(n graph.NodeID, d float64) pq.Handle {
	if sc.isClosed(n) {
		return 0
	}
	if sc.isSeen(n) && sc.dist[n] <= d {
		return 0
	}
	sc.seen[n] = sc.epoch
	sc.dist[n] = d
	return sc.heap.Push(n, d)
}

// pop removes the next unclosed node in distance order, closes it, and
// returns it. ok is false when the heap is exhausted.
func (sc *scratch) pop() (n graph.NodeID, d float64, ok bool) {
	//lint:ignore vetrnn/execpoll in-memory drain of stale heap entries; callers poll per popped node
	for {
		n, d, ok = sc.heap.Pop()
		if !ok {
			return 0, 0, false
		}
		if sc.isClosed(n) {
			continue
		}
		sc.close(n)
		return n, d, true
	}
}

// searchPools holds the shared per-query scratch pools of a Searcher, so
// that bounded views (Bound) alias the same pools instead of copying them.
type searchPools struct {
	scratch sync.Pool // *scratch, sized to g.NumNodes()
	counts  sync.Pool // *lazyCounts
}

// Searcher executes restricted-network RkNN queries against a graph. It
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
type Searcher struct {
	g     graph.Access
	pools *searchPools
	ec    *exec.Ctx // nil = unbounded
}

// NewSearcher creates a Searcher over g.
func NewSearcher(g graph.Access) *Searcher {
	s := &Searcher{g: g, pools: &searchPools{}}
	s.pools.scratch.New = func() any { return newScratch(g.NumNodes()) }
	s.pools.counts.New = func() any { return &lazyCounts{} }
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
	return &Searcher{g: s.g, pools: s.pools, ec: ec}
}

// Graph returns the underlying graph access.
func (s *Searcher) Graph() graph.Access { return s.g }

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

func (s *Searcher) acquire() *scratch {
	return s.pools.scratch.Get().(*scratch)
}

func (s *Searcher) release(sc *scratch) {
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

func (s *Searcher) harvest(st *Stats, sc *scratch) {
	st.HeapPushes += int64(sc.heap.PushCount)
	st.HeapPops += int64(sc.heap.PopCount)
	sc.heap.PushCount = 0
	sc.heap.PopCount = 0
}

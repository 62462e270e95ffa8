package core

import (
	"sync"

	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/pq"
	"graphrnn/internal/storage"
)

// entry is one queue item of the one walker queue, which carries three
// kinds. A node entry is labelled Dijkstra-style through the scratch
// arrays; a point arrival is a data point of an edge-resident set reached
// along its edge from a popped endpoint (or directly, when it shares the
// source's edge); a target arrival is the query location reached the same
// way. Arrivals are plain entries: a point is pushed from both endpoints of
// its edge, so its first pop carries the exact minimum distance (Fig 14's
// two bounds for d(q,p3)) and the consumer drops the later ones.
//
// The kind lives in gen. A node entry's gen is its generator, the node
// whose expansion pushed it, or noGen for a seed; lazy's pruning drops the
// entry by it. The values below noGen mark the other kinds: setCand and
// setSite a point arrival of that set (bichromatic walks surface both),
// genTarget a target arrival. So an entry packs to 8 bytes, and a radix
// slot (entry and 8-byte key) takes 16.
type entry struct {
	id  int32        // node id, or point id of an arrival
	gen graph.NodeID // generator of a node entry, or a kind below noGen
}

const (
	// noGen is the generator of a seed: no expansion pushed it.
	noGen graph.NodeID = -1
	// setCand and setSite mark a point arrival of the candidate or the
	// site set; they are the set argument of pushPoint.
	setCand graph.NodeID = -2
	setSite graph.NodeID = -3
	// genTarget marks a target arrival.
	genTarget graph.NodeID = -4
)

func (e entry) isNode() bool          { return e.gen >= noGen }
func (e entry) isPoint() bool         { return e.gen == setCand || e.gen == setSite }
func (e entry) isTarget() bool        { return e.gen == genTarget }
func (e entry) node() graph.NodeID    { return graph.NodeID(e.id) }
func (e entry) point() points.PointID { return points.PointID(e.id) }

// scratch holds the per-expansion state of one Dijkstra-style traversal:
// tentative distances, one seen/closed stamp per node (epoch-based so that
// no O(|V|) clearing is needed between queries), the queue, and the buffers
// an expansion step reads into.
//
// Every walk is monotone — a push is the popped distance plus a
// non-negative weight or edge offset, seeds come before the first pop — so
// the queue is the radix queue, which pops in exactly a binary heap's
// (priority, insertion) order.
type scratch struct {
	dist []graph.Dist
	// stamp[n] is epoch when n was seen by this expansion, epoch|1 when it
	// is closed too (a closed node was seen first); epoch is even and
	// anything else is an older expansion's.
	stamp []uint32
	epoch uint32
	queue pq.Radix[entry]
	// gens, while lazy's main walk runs on this scratch, are its per-node
	// counters: a node entry whose generator's counter has reached k is
	// dropped when it surfaces (lazyPrune).
	gens *lazyCounts
	adj  []graph.Edge
	refs []points.EdgePointRef
	// done holds the point arrivals a verification has already consumed;
	// made on the first arrival, so node-resident sets never pay for it.
	done map[points.PointID]struct{}
}

func newScratch(n int) *scratch {
	return &scratch{
		dist:  make([]graph.Dist, n),
		stamp: make([]uint32, n),
	}
}

// begin starts a fresh expansion.
func (sc *scratch) begin() {
	sc.epoch += 2
	if sc.epoch == 0 { // epoch wrapped: wipe stamps and restart
		clear(sc.stamp)
		sc.epoch = 2
	}
	sc.queue.Reset()
	sc.gens = nil
	clear(sc.done)
}

func (sc *scratch) isSeen(n graph.NodeID) bool   { return sc.stamp[n]&^1 == sc.epoch }
func (sc *scratch) isClosed(n graph.NodeID) bool { return sc.stamp[n] == sc.epoch|1 }

func (sc *scratch) close(n graph.NodeID) { sc.stamp[n] = sc.epoch | 1 }

// pushNode offers node n at distance d, generated by node from (noGen for
// a seed), applying the lazy-deletion Dijkstra discipline: duplicates with
// worse labels are suppressed.
func (sc *scratch) pushNode(from, n graph.NodeID, d graph.Dist) {
	if sc.isClosed(n) {
		return
	}
	if sc.isSeen(n) && sc.dist[n] <= d {
		return
	}
	sc.stamp[n] = sc.epoch
	sc.dist[n] = d
	sc.queue.Push(entry{id: int32(n), gen: from}, uint64(d))
}

func (sc *scratch) pushPoint(set graph.NodeID, p points.PointID, d graph.Dist) {
	sc.queue.Push(entry{id: int32(p), gen: set}, uint64(d))
}

func (sc *scratch) pushTarget(d graph.Dist) {
	sc.queue.Push(entry{gen: genTarget}, uint64(d))
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
// the way out and stale ones (nodes already closed) are skipped. Under
// lazy's pruning a node entry whose generator's counter has reached k is
// dropped first: Fig 6 removed it before it surfaced, so it is not a pop
// and closes nothing. ok is false when the queue is exhausted.
func (sc *scratch) pop() (e entry, d graph.Dist, ok bool) {
	for {
		var k uint64
		if e, k, ok = sc.queue.Pop(); !ok {
			return entry{}, 0, false
		}
		if e.isNode() {
			if sc.gens != nil && e.gen != noGen && sc.gens.atK(e.gen) {
				sc.queue.PopCount--
				continue
			}
			if sc.isClosed(e.node()) {
				continue
			}
			sc.close(e.node())
		}
		return e, graph.Dist(k), true
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
//
// Over a storage.DiskStore packed as connected balls (Clustered), Run and
// KNN read the network through a storage.Session of their own, which
// decodes each adjacency list once a query and owes the pool the page
// accesses of repeated reads. The query's
// end settles that debt, and so does every poll of a query under an I/O
// budget (checkExec, checkExecStride), so the pool's counters are exact at
// the end and the budget reads them exactly.
type Searcher struct {
	g, in graph.Access
	// disk is g when the network is paged as balls; sess is the query's
	// session on the view Run and KNN read through.
	disk  *storage.DiskStore
	sess  *storage.Session
	pools *searchPools
	ec    *exec.Ctx // nil = unbounded
}

// NewSearcher creates a Searcher over g.
func NewSearcher(g graph.Access) *Searcher {
	s := &Searcher{g: g, in: g.In(), pools: &searchPools{}}
	if ds, ok := g.(*storage.DiskStore); ok && ds.Clustered {
		s.disk = ds
	}
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
	return &Searcher{g: s.g, in: s.in, disk: s.disk, pools: s.pools, ec: ec}
}

// session returns the view of s a query over a paged network reads
// through: s with a fresh session for its accesses. endSession releases it.
func (s *Searcher) session() Searcher {
	view := *s
	view.sess = s.disk.Session()
	view.g, view.in = view.sess, view.sess
	return view
}

// endSession flushes and releases the view's session at the end of its
// query, whose error was err. A failed replay invalidates the result, as
// the read it stands for would have.
func (s *Searcher) endSession(err error) error {
	if cerr := s.sess.Close(); cerr != nil && (err == nil || exec.IsExecErr(err)) {
		return cerr
	}
	return err
}

// checkExec polls the query's execution context, charging the nodes popped
// so far. It is a nil check for unbounded queries. Under an I/O budget it
// first flushes the query's session, so the budget reads the count the
// reads so far would have left.
func (s *Searcher) checkExec(st *Stats) error {
	if s.ec == nil {
		return nil
	}
	if s.sess != nil && s.ec.ReadsIO() {
		if err := s.sess.Flush(); err != nil {
			return err
		}
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
	return s.checkExec(st)
}

// acquire returns a scratch begun for a fresh expansion.
func (s *Searcher) acquire() *scratch {
	sc := s.pools.scratch.Get().(*scratch)
	sc.begin()
	return sc
}

// release adds the queue traffic of sc to st and returns it to the pool.
func (s *Searcher) release(st *Stats, sc *scratch) {
	st.HeapPushes += int64(sc.queue.PushCount)
	st.HeapPops += int64(sc.queue.PopCount)
	sc.queue.PushCount = 0
	sc.queue.PopCount = 0
	s.pools.scratch.Put(sc)
}

// releaseMain is release for the scratch of a query's main walk, deferred
// by a function whose named result is res. Its return statement has copied
// the query's Stats into *res before deferred calls run, so the walk's own
// queue traffic goes there; an invalidated (nil) result drops it.
func (s *Searcher) releaseMain(res **Result, sc *scratch) {
	var dropped Stats
	st := &dropped
	if *res != nil {
		st = &(*res).Stats
	}
	s.release(st, sc)
}

// acquireCounts returns lazy visit counters reset for a fresh query.
func (s *Searcher) acquireCounts(k int) *lazyCounts {
	c := s.pools.counts.Get().(*lazyCounts)
	c.reset(s.g.NumNodes(), k)
	return c
}

func (s *Searcher) releaseCounts(c *lazyCounts) {
	s.pools.counts.Put(c)
}

package hublabel

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphrnn/internal/graph"
	"graphrnn/internal/pq"
)

// BuildOptions tunes the labeling construction. The zero value is the
// sequential build.
type BuildOptions struct {
	// Workers is the number of goroutines that run the pruned landmark
	// sweeps. 0 and 1 run the classic sequential build; negative uses
	// GOMAXPROCS — or the sequential build when GOMAXPROCS is below 3,
	// where the batches' speculative sweeps cost more than two workers win
	// back. Every worker count produces bit-identical labels for a given
	// graph: parallelism changes the schedule, never the result.
	Workers int
}

// BuildStats describes one labeling construction.
type BuildStats struct {
	// Workers actually used (after resolving a negative count).
	Workers int
	// Batches of landmarks processed; 0 for the sequential build, which
	// commits after every landmark.
	Batches int
	// Landmarks swept (= nodes of the graph).
	Landmarks int
	// Visits counts nodes popped across every pruned sweep, speculative
	// batch sweeps included.
	Visits int64
	// Pruned counts visits cut by the 2-hop cover test.
	Pruned int64
	// Resweeps counts batched landmarks whose speculative sweep was
	// discarded because a same-batch predecessor covered part of its
	// frontier; each one is redone sequentially at merge time.
	Resweeps int64
	// Wall is the total construction time, ordering included.
	Wall time.Duration
}

// workers resolves the worker count. "As many as the machine has" picks
// the sequential build on one or two CPUs: at two workers the batched build
// sweeps 2.45M nodes where the sequential one sweeps 1.57M on road-20K
// (793 resweeps) and takes ≈ 0.69 s against ≈ 0.44 s (medians of 7 on a
// 2-CPU Xeon). An explicit count is taken at its word.
func (o BuildOptions) workers() int {
	w := o.Workers
	if w < 0 {
		if w = runtime.GOMAXPROCS(0); w < 3 {
			w = 1
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

// BuildOpt constructs the 2-hop labeling of g with pruned landmark
// labeling. The graph is read directly (no counted I/O); builds are
// CPU-bound and meant to run once per graph, then persist via Write.
//
// Every landmark runs a forward sweep (over out-arcs, computing d(h→v) and
// filling L_in(v)) and a backward sweep (over in-arcs, computing d(v→h) and
// filling L_out(v)). On a symmetric graph — g.In() is g — the two sweeps
// are one and the two label sets alias: the undirected labeling.
//
// Workers > 1 processes landmarks in rank-ordered batches: each batch's
// pruned Dijkstras run across a worker pool pruning against the labels
// committed by earlier batches only, and a sequential rank-order merge
// re-checks every candidate against its in-batch predecessors before
// appending — so the labeling is a pure function of graph and landmark
// order, bit-identical to the sequential build and independent of worker
// count and batch boundaries.
func BuildOpt(g graph.Access, opt BuildOptions) (*Labeling, BuildStats, error) {
	start := time.Now()
	st := BuildStats{Workers: opt.workers()}
	n := g.NumNodes()
	out, in := g, g.In()
	order, err := buildOrder(out, in)
	if err != nil {
		return nil, st, err
	}
	st.Landmarks = len(order)
	var outL, inL [][]Entry
	if st.Workers == 1 {
		outL, inL, err = buildSequential(out, in, order, n, &st)
	} else {
		outL, inL, err = buildBatched(out, in, order, n, st.Workers, &st)
	}
	if err != nil {
		return nil, st, err
	}
	l := newLabeling(n, in != out, outL, inL)
	st.Wall = time.Since(start)
	return l, st, nil
}

// buildOrder computes the landmark order. The graph is peeled from the
// outside in by capped min-degree elimination (eliminate); the nodes the
// peel never reaches — the core — are ranked by sampled centrality
// (landmarkOrder) and sweep first, and the peeled nodes follow in reverse
// elimination order, so every node's label draws on the separators that
// were eliminated after it and on the core. The order decides only the size
// of the labels: pruned landmark labeling is an exact 2-hop cover under any
// order.
func buildOrder(out, in graph.Access) ([]graph.NodeID, error) {
	nbr, err := undirectedAdjacency(out, in)
	if err != nil {
		return nil, err
	}
	degree := make([]int, len(nbr))
	for v := range nbr {
		degree[v] = len(nbr[v])
	}
	core, peeled := eliminate(nbr)
	if err := landmarkOrder(out, core, degree); err != nil {
		return nil, err
	}
	slices.Reverse(peeled)
	return append(core, peeled...), nil
}

// undirectedAdjacency lists every node's neighbours over out-arcs ∪ in-arcs,
// sorted by id, without self-loops or duplicates: the graph the elimination
// runs on. Direction and weights play no part in it.
func undirectedAdjacency(out, in graph.Access) ([][]graph.NodeID, error) {
	sides := []graph.Access{out, in}
	if in == out {
		sides = sides[:1]
	}
	nbr := make([][]graph.NodeID, out.NumNodes())
	var adj []graph.Edge
	var err error
	for v := range nbr {
		var ids []graph.NodeID
		for _, side := range sides {
			if adj, err = side.Adjacency(graph.NodeID(v), adj); err != nil {
				return nil, err
			}
			for _, e := range adj {
				if e.To != graph.NodeID(v) {
					ids = append(ids, e.To)
				}
			}
		}
		slices.Sort(ids)
		nbr[v] = slices.Compact(ids)
	}
	return nbr, nil
}

// elimCap is the largest fill-degree the elimination accepts: it stops as
// soon as the cheapest remaining node has more neighbours than this. The cap
// is what keeps a scale-free graph from turning into cliques, and between 12
// and 32 no family's labels move by a tenth, so it is a constant, not an
// option. Label entries by cap (deterministic; TestLandmarkOrderLabelSizes
// prints the row of the constant), the core ranked by landmarkOrder, against
// that ranking alone. Every row but the last was measured before weights lay
// on the graph's quantum (graph.Builder), when a covering path through an
// earlier hub could lose its tie by the last bit and the entry was stored
// anyway; the last row is the constant's on the quantum:
//
//	cap              road-20K   BRITE-10K   grid-10K deg 4       deg 6
//	none peeled     2 551 940     481 246      1 046 459     2 755 161
//	4               1 845 214     469 100        886 905     2 719 915
//	8               1 571 748     461 155        824 320     2 491 887
//	12              1 493 526     462 050        818 284     2 391 034
//	16              1 438 383     462 029        811 161     2 336 430
//	24              1 424 247     462 884        778 916     2 226 590
//	32              1 463 878     462 826        769 453     2 186 763
//	all peeled      1 818 279   6 420 271      1 636 910     3 162 364
//	16, on Q        1 180 199     402 737        806 943     2 203 662
//
// Build time follows the entries (road-20K, sequential on one core: ≈ 0.82 s
// unpeeled, ≈ 0.44 s at 16 before the quantum, the order itself ≈ 56 ms of
// that). Uncapped,
// BRITE's 19 997 edges grow 528 761 fill edges (44 357 at 16): the
// neighbourhoods of its hubs become cliques, and an order through cliques is
// no order.
const elimCap = 16

// eliminate peels the undirected graph nbr by min-degree elimination and
// returns the peeled nodes in elimination order and, in no particular order,
// the core. Each step removes the node of least cost d·(d−1)/2 − d + level —
// d its current degree, so the first two terms are the most edges its removal
// can add minus the ones it takes away, and level one more than the highest
// level among the neighbours already eliminated around it, which spreads the
// peel evenly instead of tunnelling into one region — ties by id, and joins
// its remaining neighbours into a clique (the fill). It stops at the first
// cheapest node of degree above elimCap; whatever is left is the core. nbr is
// consumed: on return it holds the fill graph of the core.
func eliminate(nbr [][]graph.NodeID) (core, peeled []graph.NodeID) {
	n := len(nbr)
	level := make([]int, n)
	// The heap key is cost·n + id: an exact integer in a float64 for every
	// node an elimination can pick (cost ≤ elimCap² + n), and rounding is
	// monotone above that, where the only question is "above the cap".
	key := func(v graph.NodeID) float64 {
		d := len(nbr[v])
		return float64(d*(d-1)/2-d+level[v])*float64(n) + float64(v)
	}
	// A re-keyed node is pushed again under a new version; an entry whose
	// version is not its node's current one is stale and skipped. The live
	// entries keep their (key, push) order, as if the old one were removed.
	type versioned struct {
		v       graph.NodeID
		version int32
	}
	var heap pq.Heap[versioned]
	version := make([]int32, n)
	for v := range nbr {
		heap.Push(versioned{graph.NodeID(v), 0}, key(graph.NodeID(v)))
	}
	for {
		e, _, ok := heap.Pop()
		if !ok {
			return core, peeled
		}
		v := e.v
		if e.version != version[v] {
			continue
		}
		if len(nbr[v]) > elimCap || len(core) > 0 {
			core = append(core, v) // the peel is over: the rest of the heap is the core
			continue
		}
		peeled = append(peeled, v)
		for _, u := range nbr[v] {
			a := nbr[u]
			i, _ := slices.BinarySearch(a, v)
			a = slices.Delete(a, i, i+1)
			for _, w := range nbr[v] {
				if j, found := slices.BinarySearch(a, w); !found && w != u {
					a = slices.Insert(a, j, w)
				}
			}
			nbr[u] = a
			level[u] = max(level[u], level[v]+1)
			version[u]++
			heap.Push(versioned{u, version[u]}, key(u))
		}
		nbr[v] = nil
	}
}

// labelTables allocates the per-node entry lists of a build: one table
// serving both sides when the graph is symmetric.
func labelTables(out, in graph.Access, n int) (outL, inL [][]Entry) {
	outL = make([][]Entry, n)
	if in == out {
		return outL, outL
	}
	return outL, make([][]Entry, n)
}

func buildSequential(out, in graph.Access, order []graph.NodeID, n int, st *BuildStats) (outL, inL [][]Entry, err error) {
	outL, inL = labelTables(out, in, n)
	ds := newDijkstraState(n)
	lp := newLandmarkProbe(n)
	for _, h := range order {
		// Forward sweep computes d(h→v) and fills L_in(v); the pruning
		// query d(h→v) intersects L_out(h) with L_in(v).
		lp.load(outL[h])
		if err := prunedSweep(out, h, lp, inL, ds, st); err != nil {
			return nil, nil, err
		}
		if in == out {
			continue
		}
		// Backward sweep computes d(v→h) and fills L_out(v); the pruning
		// query d(v→h) intersects L_out(v) with L_in(h).
		lp.load(inL[h])
		if err := prunedSweep(in, h, lp, outL, ds, st); err != nil {
			return nil, nil, err
		}
	}
	return outL, inL, nil
}

// --- Batched parallel build ------------------------------------------------

// buildScratch is the per-worker sweep state, recycled through a sync.Pool
// like the query-side scratch.
type buildScratch struct {
	ds *dijkstraState
	lp *landmarkProbe
}

// buildCand is one batched-sweep candidate: the sweep proved no
// earlier-batch landmark covers (h, node) at dist; in-batch predecessors
// are re-checked at merge time.
type buildCand struct {
	node graph.NodeID
	dist graph.Dist
}

// sweepResult is the output of one batched sweep, indexed by the
// landmark's position in its batch so the merge is schedule-independent.
type sweepResult struct {
	cands  []buildCand
	visits int64
	pruned int64
	err    error
}

// batchCap bounds the batch size: large batches amortize worker wake-ups
// but prune against staler labels, so the sweeps do more speculative work
// that the merge then discards.
func batchCap(workers int) int {
	c := 4 * workers
	if c < 16 {
		c = 16
	}
	return c
}

// batchedSweep runs one pruned Dijkstra from landmark h against the labels
// committed by earlier batches only. Candidates are collected instead of
// appended — committed is read-only here, which is what lets a whole batch
// run concurrently. The sweep is speculative: as long as no same-batch
// predecessor covers any popped node, its pop decisions (and therefore its
// distances) are bit-identical to the sequential sweep's; the merge
// verifies exactly that condition before committing.
func batchedSweep(g graph.Access, h graph.NodeID, hub []Entry, committed [][]Entry, sc *buildScratch, out *sweepResult) {
	sc.lp.load(hub)
	ds := sc.ds
	ds.begin()
	ds.push(h, 0)
	out.cands = out.cands[:0]
	for {
		v, dist, ok := ds.pop()
		if !ok {
			return
		}
		out.visits++
		if sc.lp.covers(committed[v], dist) {
			out.pruned++
			continue
		}
		out.cands = append(out.cands, buildCand{node: v, dist: dist})
		if ds.adj, out.err = g.Adjacency(v, ds.adj); out.err != nil {
			return
		}
		for _, e := range ds.adj {
			ds.push(e.To, dist+e.W)
		}
	}
}

// runBatch fans the batch's jobs across the worker pool and waits for all
// of them. Results land at each job's own index, so nothing downstream
// depends on completion order; failed flips as soon as any job errors and
// later jobs skip their sweeps. A skipped slot is never read: jobs are
// dispatched in index order, so the first recorded error always has a
// lower index than any skipped job, and the merge stops there.
func runBatch(jobs int, workers int, failed *atomic.Bool, scratch *sync.Pool, sweep func(i int, sc *buildScratch)) {
	if workers > jobs {
		workers = jobs
	}
	ch := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratch.Get().(*buildScratch)
			defer scratch.Put(sc)
			for i := range ch {
				if failed.Load() {
					continue
				}
				sweep(i, sc)
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}

// mergeSweep commits the candidates of landmark h's speculative sweep r,
// at h's turn in rank order. hub is the landmark-side label as of that turn
// (committed batches plus in-batch predecessors already merged). If no
// candidate is covered by that label state, the speculative sweep made
// exactly the pop decisions the sequential sweep would have — before the
// first divergent decision distances are equal, and the first divergence is
// always a keep-vs-prune flip that shows up here as a covered candidate — so
// the candidates commit as-is. Otherwise the exploration may have relaxed
// edges the sequential build pruned, which can change the distances later
// pops carry; the whole sweep is redone sequentially against the
// now-current labels. Either way the result is bit-identical to the
// sequential build.
func mergeSweep(g graph.Access, h graph.NodeID, r *sweepResult, hub []Entry, into [][]Entry, mergeLP *landmarkProbe, mergeDS *dijkstraState, st *BuildStats) error {
	if r.err != nil {
		return r.err
	}
	st.Visits += r.visits
	st.Pruned += r.pruned
	mergeLP.load(hub)
	for _, c := range r.cands {
		if mergeLP.covers(into[c.node], c.dist) {
			st.Resweeps++
			return prunedSweep(g, h, mergeLP, into, mergeDS, st)
		}
	}
	for _, c := range r.cands {
		into[c.node] = append(into[c.node], Entry{Hub: h, Dist: c.dist})
	}
	return nil
}

func newBuildScratchPool(n int) *sync.Pool {
	return &sync.Pool{New: func() any {
		return &buildScratch{ds: newDijkstraState(n), lp: newLandmarkProbe(n)}
	}}
}

// batchSpan yields the next rank-ordered batch: sizes double from 1 up to
// batchCap, so the first (widest-reaching) landmarks commit quickly and
// later sweeps prune against nearly fresh labels.
func batchSpan(order []graph.NodeID, start, size int) []graph.NodeID {
	end := start + size
	if end > len(order) {
		end = len(order)
	}
	return order[start:end]
}

// landmarkSweeps pairs the two sweeps of one landmark; a symmetric graph
// runs fwd only.
type landmarkSweeps struct {
	fwd, bwd sweepResult
}

// buildBatched runs the speculative batched build. The labeling it
// produces must be bit-identical to the sequential build's regardless of
// worker count or scheduling.
func buildBatched(out, in graph.Access, order []graph.NodeID, n, workers int, st *BuildStats) (outLabels, inLabels [][]Entry, err error) {
	outL, inL := labelTables(out, in, n)
	scratch := newBuildScratchPool(n)
	mergeLP := newLandmarkProbe(n)
	mergeDS := newDijkstraState(n)
	maxBatch := batchCap(workers)
	res := make([]landmarkSweeps, maxBatch)
	var failed atomic.Bool
	for start, size := 0, 1; start < len(order); size *= 2 {
		if size > maxBatch {
			size = maxBatch
		}
		batch := batchSpan(order, start, size)
		start += len(batch)
		runBatch(len(batch), workers, &failed, scratch, func(i int, sc *buildScratch) {
			h := batch[i]
			r := &res[i]
			*r = landmarkSweeps{fwd: sweepResult{cands: r.fwd.cands}, bwd: sweepResult{cands: r.bwd.cands}}
			batchedSweep(out, h, outL[h], inL, sc, &r.fwd)
			if in != out && r.fwd.err == nil {
				batchedSweep(in, h, inL[h], outL, sc, &r.bwd)
			}
			if r.fwd.err != nil || r.bwd.err != nil {
				failed.Store(true)
			}
		})
		// The merge mirrors the sequential interleaving per landmark:
		// forward candidates commit into L_in before the backward probe
		// loads L_in(h), so a landmark's own self-entry is visible to its
		// backward half exactly as in the sequential build.
		for i, h := range batch {
			if err := mergeSweep(out, h, &res[i].fwd, outL[h], inL, mergeLP, mergeDS, st); err != nil {
				return nil, nil, err
			}
			if in == out {
				continue
			}
			if err := mergeSweep(in, h, &res[i].bwd, inL[h], outL, mergeLP, mergeDS, st); err != nil {
				return nil, nil, err
			}
		}
		st.Batches++
	}
	return outL, inL, nil
}

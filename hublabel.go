package graphrnn

import (
	"fmt"

	"graphrnn/internal/core"
	"graphrnn/internal/exec"
	"graphrnn/internal/graph"
	"graphrnn/internal/hublabel"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// HubLabelIndex is the third query substrate, next to plain network
// expansion and the materialized K-NN lists: a pruned-landmark 2-hop hub
// labeling of the graph — forward and backward labels when it is directed
// — plus a ReHub-style reverse index over a tracked node-resident point set
// (Efentakis & Pfoser). Queries through
// HubLabel(idx) answer monochromatic, bichromatic and continuous RkNN by
// label-list intersection — no network expansion at all — which makes them
// orders of magnitude faster than eager/lazy on large networks, at the
// price of a one-off labeling build.
//
// The index is registered with the point set it was built over: mutate the
// set through its Insert / Remove (or Place / Delete) and the hub lists and
// K-NN thresholds are repaired incrementally, in memory, after the set's
// materializations (ReHub's split: the labels stay static, only the
// point-annotated hub lists change). An index whose repair fails is
// detached from the set (ErrSubstrateDetached). The labeling itself is
// per graph; a changed graph requires a rebuild (BuildHubLabelIndex again)
// — there is no incremental edge maintenance, by design. Like every
// substrate, the index lives as long as its process: a restart builds the
// labeling again (ReHub, too, treats it as a per-graph build).
//
// With HubLabelOptions.DiskBacked the labels are served from pages read
// through the shared buffer pool, so label reads count I/O like every other
// substrate.
type HubLabelIndex struct {
	idx *hublabel.Index
	// lab counts the labels, and serves them when store is nil. A paged
	// index reads them through store, and lab is the store's entry-less
	// Labeling: it does not pin the labeling it was paged from.
	lab   *hublabel.Labeling
	store *hublabel.Store
	node  *NodePoints // the set the index is over, nil once detached
	build HubLabelBuildStats
}

// BuildOptions tunes the labeling construction.
type BuildOptions struct {
	// Workers is the number of goroutines running the pruned landmark
	// sweeps. 0 and 1 build sequentially; negative uses GOMAXPROCS, or
	// builds sequentially when that is below 3 (two workers do not pay for
	// the batches' speculation). The labels are bit-identical at every
	// worker count.
	Workers int
}

// HubLabelBuildStats describes how a hub-label index was constructed.
type HubLabelBuildStats struct {
	// Workers that ran the landmark sweeps.
	Workers int
	// Batches of landmarks processed; 0 for a sequential build.
	Batches int
	// Landmarks swept (= graph nodes).
	Landmarks int
	// Visits counts nodes popped across all pruned sweeps; Pruned the
	// visits cut by the 2-hop cover test; Resweeps the batched landmarks
	// redone sequentially after in-batch coverage.
	Visits, Pruned, Resweeps int64
	// WallSeconds is the labeling construction time.
	WallSeconds float64
	// LabelBytes is the size of the labels: each side's entries packed at
	// the width the graph needs — a hub id in the bytes of n − 1 and a
	// distance count in the bytes of the side's largest, 8 bytes on
	// road-20K — plus 4 bytes a node and side of CSR offsets. In memory they
	// are held in a read-only mapping outside the collected Go heap on Linux
	// and macOS; paged, they are the label pages' payload, the same bytes.
	LabelBytes int64
}

// HubLabelOptions configures how the labeling is stored and served.
type HubLabelOptions struct {
	// DiskBacked packs the labels into 4 KB pages read through the shared
	// buffer pool (tenant "hublabel") with counted I/O, instead of serving
	// them from memory; the experiments count label I/O this way.
	DiskBacked bool
	// BufferPages is the label pages' frame quota in the pool (default 64).
	BufferPages int
	// Build controls the labeling construction (worker count).
	Build BuildOptions
}

func (o *HubLabelOptions) defaults() (buffer int, paged bool, build BuildOptions) {
	buffer = 64
	if o != nil {
		if o.BufferPages > 0 {
			buffer = o.BufferPages
		}
		paged, build = o.DiskBacked, o.Build
	}
	return buffer, paged, build
}

// BuildHubLabelIndex builds the 2-hop labeling of the graph (CPU-bound, one
// pruned Dijkstra per node, parallel across Build.Workers) and the reverse
// index over ps, materializing K-NN thresholds for monochromatic queries up
// to maxK. The labeling build reads the in-memory graph directly and
// performs no counted I/O. The new index is registered with ps: mutations
// of the set repair it, and auto-planned queries over ps — or bichromatic
// ones whose sites are ps — start using it immediately (the set's most
// recently built index wins; indexes over other sets are unaffected).
func (db *DB) BuildHubLabelIndex(ps *NodePoints, maxK int, opt *HubLabelOptions) (*HubLabelIndex, error) {
	return db.buildHubLabelIndex(ps, maxK, opt, true)
}

// buildHubLabelIndex is BuildHubLabelIndex with the registration optional:
// a Sharded keeps its index private (track false) — over ps, but unseen by
// the set's planner and maintenance; only an explicit HubLabel hint runs it.
func (db *DB) buildHubLabelIndex(ps *NodePoints, maxK int, opt *HubLabelOptions, track bool) (*HubLabelIndex, error) {
	if maxK < 1 {
		return nil, fmt.Errorf("graphrnn: maxK must be >= 1, got %d", maxK)
	}
	buffer, paged, build := opt.defaults()
	lab, bst, err := hublabel.BuildOpt(db.graph.g, hublabel.BuildOptions{Workers: build.Workers})
	if err != nil {
		return nil, err
	}
	h := &HubLabelIndex{lab: lab}
	h.build = HubLabelBuildStats{
		Workers:     bst.Workers,
		Batches:     bst.Batches,
		Landmarks:   bst.Landmarks,
		Visits:      bst.Visits,
		Pruned:      bst.Pruned,
		Resweeps:    bst.Resweeps,
		WallSeconds: bst.Wall.Seconds(),
		LabelBytes:  lab.Bytes(),
	}
	if paged {
		file := storage.NewMemFile(storage.DefaultPageSize)
		bm := db.pool.attach("hublabel", file, buffer)
		if h.store, err = hublabel.NewStore(lab, file, bm); err != nil {
			_ = bm.Detach()
			return nil, err
		}
		h.lab = &h.store.Labeling // the pages serve from here on
	}
	return h.index(ps, maxK, track)
}

// index builds the reverse index over ps — ReHub's per-object-set half,
// cheap next to the labeling — and registers the finished substrate with
// ps when track is set; on failure the labels are released.
func (h *HubLabelIndex) index(ps *NodePoints, maxK int, track bool) (*HubLabelIndex, error) {
	src := hublabel.Source(h.store)
	if h.store == nil {
		src = h.lab
	}
	var err error
	if h.idx, err = hublabel.NewIndex(src, maxK, hubPointsOf(ps)); err != nil {
		_ = h.Close()
		return nil, err
	}
	h.node = ps
	if track {
		register(&ps.hubs, h, true)
	}
	return h, nil
}

// Close unregisters the index from its point set and releases the label
// pages, if any, from the shared buffer pool. Queries must not be in
// flight.
func (h *HubLabelIndex) Close() error {
	h.detach()
	if h.store != nil {
		return h.store.Close()
	}
	return nil
}

// detach cuts the index off its point set: unregistered and tracking
// nothing, it is never planned and an explicit hint to it reports a foreign
// point set (see ErrSubstrateDetached).
func (h *HubLabelIndex) detach() {
	if h.node != nil {
		register(&h.node.hubs, h, false)
		h.node = nil
	}
}

// repair runs the hub-list half of op: a point-level insert or delete on
// the reverse lists and thresholds.
func (h *HubLabelIndex) repair(op *setOp) (Stats, error) {
	if op.insert {
		return h.idx.Insert(points.PointID(op.p), graph.NodeID(op.loc.U))
	}
	return h.idx.Delete(points.PointID(op.p))
}

// MaxK returns the largest monochromatic query k the thresholds support
// (bichromatic queries are not bounded by it).
func (h *HubLabelIndex) MaxK() int { return h.idx.MaxK() }

// LabelEntries returns the total number of hub label entries.
func (h *HubLabelIndex) LabelEntries() int { return h.lab.Entries() }

// AverageLabelSize returns the mean label entries per node.
func (h *HubLabelIndex) AverageLabelSize() float64 { return h.lab.AverageLabelSize() }

// BuildStats returns the construction counters.
func (h *HubLabelIndex) BuildStats() HubLabelBuildStats { return h.build }

func hubPointsOf(ps *NodePoints) []hublabel.PointOnNode {
	ids := ps.Points()
	out := make([]hublabel.PointOnNode, 0, len(ids))
	for _, p := range ids {
		n, ok := ps.NodeOf(p)
		if !ok {
			continue // concurrently deleted since Points(): nothing to index
		}
		out = append(out, hublabel.PointOnNode{P: points.PointID(p), Node: graph.NodeID(n)})
	}
	return out
}

// run executes a planned node-resident query through the index under ec.
// The index answers over the set it tracks — the data set, or the sites of
// a bichromatic query, whose candidates come from the caller's view. On an
// execution-control error the partial stats ride along with it.
func (h *HubLabelIndex) run(ec *exec.Ctx, pl *planned) (*core.Result, error) {
	if h.node == nil || &h.node.trackedSet != pl.set {
		return nil, fmt.Errorf("graphrnn: hub-label index does not track the queried point set")
	}
	hidden := points.NoPoint
	if hv, ok := pl.tracked().Node.(points.HiddenPointView); ok {
		hidden = hv.HiddenPoint()
	}
	var pts []points.PointID
	var st core.Stats
	var err error
	switch pl.plan.Kind {
	case KindContinuous:
		pts, st, err = h.idx.ContinuousRkNNExec(ec, toNodeIDs(pl.route), pl.k, hidden)
	case KindBichromatic:
		pts, st, err = h.idx.BichromaticRkNNExec(ec, pl.points.Node, graph.NodeID(pl.loc.U), pl.k, hidden)
	default:
		pts, st, err = h.idx.RkNNExec(ec, graph.NodeID(pl.loc.U), pl.k, hidden)
	}
	if err != nil && !exec.IsExecErr(err) {
		return nil, err
	}
	return &core.Result{Points: pts, Stats: st}, err
}

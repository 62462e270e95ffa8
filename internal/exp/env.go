// Package exp is the experiment harness that regenerates every table and
// figure of the paper's evaluation (Section 6). Each experiment builds the
// network family, the workload (50 queries sampled from the data
// distribution, co-located point excluded) and the storage stack (4 KB
// pages, LRU buffer, materialized lists and edge-point files where
// applicable), runs the requested algorithms, and reports the paper's cost
// model: CPU seconds plus 10 ms per physical page transfer.
//
// Default scales are laptop-sized; Scale{Full: true} switches to the
// paper's sizes. Both print the same series, and EXPERIMENTS.md records
// the shape comparison against the published figures.
package exp

import (
	"fmt"
	"math/rand"
	"time"

	"graphrnn/internal/core"
	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/hublabel"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// IOCostSeconds is the charge per random I/O used throughout Section 6.
const IOCostSeconds = 0.010

// DefaultBufferPages is the paper's 1 MB LRU buffer in 4 KB pages.
const DefaultBufferPages = 256

// MatBufferPages is the buffer dedicated to the materialized list file.
const MatBufferPages = 64

// Measure is the average per-query cost of one algorithm at one setting.
type Measure struct {
	IO  float64 // physical page transfers
	CPU float64 // seconds
	// Result size, for sanity reporting.
	Results float64
}

// Total applies the paper's cost model.
func (m Measure) Total() float64 { return m.CPU + m.IO*IOCostSeconds }

// Algo identifies an algorithm column, abbreviated as in Fig 15 ("E", "EM",
// "L", "LP").
type Algo string

const (
	AlgoEager  Algo = "E"
	AlgoEagerM Algo = "EM"
	AlgoLazy   Algo = "L"
	AlgoLazyEP Algo = "LP"
	// AlgoHub is the hub-label substrate ("HL"), beyond the paper: queries
	// answered by label intersection instead of network expansion.
	AlgoHub Algo = "HL"
)

// AllAlgos is the column order of the paper's figures.
var AllAlgos = []Algo{AlgoEager, AlgoEagerM, AlgoLazy, AlgoLazyEP}

// AllSubstrates adds the hub-label column to the paper's four algorithms.
var AllSubstrates = []Algo{AlgoEager, AlgoEagerM, AlgoLazy, AlgoLazyEP, AlgoHub}

// EagerLazy restricts to the two basic algorithms (Tables 1-2, Fig 21).
var EagerLazy = []Algo{AlgoEager, AlgoLazy}

// Scale selects experiment sizes.
type Scale struct {
	// Full runs the paper-scale configuration.
	Full bool
	// Queries overrides the workload size (default 50 full / 20 quick).
	Queries int
	// Seed makes the whole experiment deterministic.
	Seed int64
}

func (s Scale) pick(quick, full int) int {
	if s.Full {
		return full
	}
	return quick
}

func (s Scale) queries() int {
	if s.Queries > 0 {
		return s.Queries
	}
	if s.Full {
		return 50
	}
	return 20
}

func (s Scale) seed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 2006
}

// bufferPages keeps the buffer:graph ratio of the paper (1 MB against the
// 175K-node SF map) when experiments run at the reduced default scale;
// otherwise a quarter-scale graph would fit the buffer entirely and hide
// the I/O behaviour Figs 15-21 measure.
func (s Scale) bufferPages() int {
	if s.Full {
		return DefaultBufferPages
	}
	return 64
}

// env is a prepared network stack for one experiment setting.
type env struct {
	g        *graph.Graph
	store    *storage.DiskStore
	searcher *core.Searcher

	nodePts *points.NodeSet
	edgePts *points.EdgeSet
	pagedEP *points.PagedEdgeSet
	mat     *core.Materialized

	hubStore *hublabel.Store
	hubIdx   *hublabel.Index
	// hubBuild records how the labeling was constructed, for the
	// experiment notes (wall time, workers, batches, compression ratio).
	hubBuild hublabel.BuildStats
}

func newEnv(g *graph.Graph, bufferPages int) (*env, error) {
	store, err := storage.BuildDiskStore(g, storage.NewMemFile(storage.DefaultPageSize), bufferPages, nil)
	if err != nil {
		return nil, err
	}
	return &env{g: g, store: store, searcher: core.NewSearcher(store)}, nil
}

func (e *env) withNodePoints(rng *rand.Rand, count int) error {
	ps, err := gen.PlaceNodePoints(rng, e.g.NumNodes(), count)
	if err != nil {
		return err
	}
	e.nodePts = ps
	return nil
}

func (e *env) withEdgePoints(rng *rand.Rand, count int) error {
	ps, err := gen.PlaceEdgePoints(rng, gen.Edges(e.g), count)
	if err != nil {
		return err
	}
	e.edgePts = ps
	paged, err := points.NewPagedEdgeSet(ps, storage.NewMemFile(storage.DefaultPageSize), MatBufferPages)
	if err != nil {
		return err
	}
	e.pagedEP = paged
	return nil
}

func (e *env) materializeNode(maxK int) error {
	return e.materialize(core.PointSet{Node: e.nodePts}, maxK)
}

func (e *env) materializeEdge(maxK int) error {
	return e.materialize(core.PointSet{Edge: e.edgePts}, maxK)
}

func (e *env) materialize(ps core.PointSet, maxK int) error {
	mat, err := e.searcher.MatBuild(ps, maxK,
		storage.NewMemFile(storage.DefaultPageSize), MatBufferPages, nil)
	if err != nil {
		return err
	}
	e.mat = mat
	return nil
}

// buildHubLabel builds the 2-hop labeling — batched across every core,
// which cannot change the result (the parallel build is bit-identical to
// the sequential one) — persists it delta-compressed into a paged memory
// file served through its own LRU buffer (so label I/O is counted like the
// other substrates), and indexes the node point set for queries up to maxK.
func (e *env) buildHubLabel(maxK int) error {
	lab, bst, err := hublabel.BuildOpt(e.g, hublabel.BuildOptions{Workers: -1})
	if err != nil {
		return err
	}
	e.hubBuild = bst
	file := newMemPageFile()
	if err := hublabel.WriteOpt(lab, file, hublabel.WriteOptions{Compression: true}); err != nil {
		return err
	}
	store, err := hublabel.OpenStore(file, MatBufferPages)
	if err != nil {
		return err
	}
	e.hubStore = store
	pts := make([]hublabel.PointOnNode, 0, e.nodePts.Len())
	for _, p := range e.nodePts.Points() {
		n, ok := e.nodePts.NodeOf(p)
		if !ok {
			continue // deleted since Points(): nothing to index
		}
		pts = append(pts, hublabel.PointOnNode{P: p, Node: n})
	}
	e.hubIdx, err = hublabel.NewIndex(store, maxK, pts)
	return err
}

// io sums physical transfers across every paged component.
func (e *env) io() int64 {
	total := e.store.Stats().IO()
	if e.mat != nil {
		total += e.mat.Stats().IO()
	}
	if e.pagedEP != nil {
		total += e.pagedEP.Stats().IO()
	}
	if e.hubStore != nil {
		total += e.hubStore.Stats().IO()
	}
	return total
}

// coldStart empties every buffer so a workload starts cold, as a fresh
// workload in the paper would.
func (e *env) coldStart() error {
	if err := e.store.Buffer().Invalidate(); err != nil {
		return err
	}
	if e.mat != nil {
		if err := e.mat.Buffer().Invalidate(); err != nil {
			return err
		}
	}
	if e.pagedEP != nil {
		if err := e.pagedEP.Buffer().Invalidate(); err != nil {
			return err
		}
	}
	if e.hubStore != nil {
		if err := e.hubStore.Buffer().Invalidate(); err != nil {
			return err
		}
	}
	return nil
}

// close detaches every paged component's buffer tenant, releasing the
// frames the experiment setting pinned. It returns the first error and
// keeps going; close is idempotent.
func (e *env) close() error {
	var first error
	if e.hubStore != nil {
		if err := e.hubStore.Close(); first == nil {
			first = err
		}
		e.hubStore = nil
	}
	if e.mat != nil {
		if err := e.mat.Close(); first == nil {
			first = err
		}
		e.mat = nil
	}
	if e.pagedEP != nil {
		if err := e.pagedEP.Close(); first == nil {
			first = err
		}
		e.pagedEP = nil
	}
	if e.store != nil {
		if err := e.store.Close(); first == nil {
			first = err
		}
		e.store = nil
	}
	return first
}

// runWorkload measures fn (one query) over a workload, returning the
// per-query averages. The buffer stays warm within the workload, matching
// the paper's setup of averaging 50 queries against one LRU buffer.
func (e *env) runWorkload(n int, fn func(i int) (*core.Result, error)) (Measure, error) {
	return e.runWorkloadOpt(n, false, fn)
}

// runWorkloadOpt optionally cold-starts the buffers before every query —
// used by the DBLP experiments, whose graph is small enough to fit the
// buffer entirely (see EXPERIMENTS.md).
func (e *env) runWorkloadOpt(n int, coldPerQuery bool, fn func(i int) (*core.Result, error)) (Measure, error) {
	if err := e.coldStart(); err != nil {
		return Measure{}, err
	}
	var m Measure
	for i := 0; i < n; i++ {
		if coldPerQuery {
			if err := e.coldStart(); err != nil {
				return Measure{}, err
			}
		}
		ioBefore := e.io()
		t0 := time.Now()
		res, err := fn(i)
		if err != nil {
			return Measure{}, fmt.Errorf("query %d: %w", i, err)
		}
		m.CPU += time.Since(t0).Seconds()
		m.IO += float64(e.io() - ioBefore)
		m.Results += float64(len(res.Points))
	}
	m.CPU /= float64(n)
	m.IO /= float64(n)
	m.Results /= float64(n)
	return m, nil
}

// newMemPageFile returns an empty in-memory page file at the default page
// size.
func newMemPageFile() *storage.MemFile {
	return storage.NewMemFile(storage.DefaultPageSize)
}

// newRng returns a deterministic RNG for workload construction.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

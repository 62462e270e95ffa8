// Package graphrnn answers reverse nearest neighbor (RNN) queries on large
// weighted graphs. It is a from-scratch Go implementation of
//
//	M. L. Yiu, D. Papadias, N. Mamoulis, Y. Tao:
//	"Reverse Nearest Neighbors in Large Graphs",
//	ICDE 2005; IEEE TKDE 18(4):540-553, 2006.
//
// Given a set of data points placed on the nodes or edges of a weighted
// graph, RkNN(q) returns the points that have the query among their k
// nearest neighbors under shortest-path distance. The paper's networks are
// undirected; a graph with one-way arcs (GraphBuilder.AddArc) is served
// too, for node-resident sets, with membership decided by the candidate's
// outgoing distances (see ErrUndirectedOnly for what it excludes). The package
// implements the paper's four algorithms — eager, lazy, eager with
// materialized K-NN lists (eager-M, including incremental maintenance), and
// lazy with extended pruning (lazy-EP) — for monochromatic, bichromatic and
// continuous (route) queries, on both node-resident ("restricted") and
// edge-resident ("unrestricted") point sets.
//
// # Quick start
//
//	gb := graphrnn.NewGraphBuilder(4)
//	gb.AddEdge(0, 1, 1.5)
//	gb.AddEdge(1, 2, 2.0)
//	gb.AddEdge(2, 3, 1.0)
//	g, _ := gb.Build()
//	db, _ := graphrnn.Open(g, nil)
//	ps := db.NewNodePoints()
//	ps.Place(0)
//	ps.Place(3)
//	res, _ := db.Run(ctx, graphrnn.Query{
//		Kind:   graphrnn.KindRNN,
//		Target: graphrnn.NodeLocation(1),
//		K:      1,
//		Points: ps,
//	})
//	// res.Points now holds the reverse nearest neighbors of node 1.
//
// The graph can be served from memory or from a paged disk file through an
// LRU buffer manager that counts physical I/O — the storage architecture
// and the cost model the paper's evaluation uses.
package graphrnn

import (
	"fmt"
	"math/rand"

	"graphrnn/internal/core"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

func newSeededRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// NodeID identifies a graph node (dense, 0..NumNodes-1).
type NodeID int32

// PointID identifies a data point within its point set.
type PointID int32

// Coord is an optional 2-D node embedding (used by spatial generators; the
// query algorithms never exploit coordinates, per Section 2.2 of the
// paper).
type Coord struct{ X, Y float64 }

// Location is a position on the network: a node, or a point on an edge
// (U,V), U < V, at offset Pos (network distance) from U.
type Location struct {
	U, V NodeID
	Pos  float64
}

// NodeLocation returns the location of node n.
func NodeLocation(n NodeID) Location { return Location{U: n, V: n} }

// EdgeLocation returns the location on edge (u,v) at offset pos from
// min(u,v).
func EdgeLocation(u, v NodeID, pos float64) Location {
	if u > v {
		u, v = v, u
	}
	return Location{U: u, V: v, Pos: pos}
}

// Graph is an immutable weighted network: undirected, unless it was built
// with one-way arcs (GraphBuilder.AddArc).
type Graph struct {
	g *graph.Graph
}

// Directed reports whether the graph has one-way arcs: some arc without an
// equal-weight twin in the opposite direction.
func (g *Graph) Directed() bool { return g.g.Directed() }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.g.NumNodes() }

// NumEdges returns |E|: undirected edges, or arcs when the graph is
// directed.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// AverageDegree returns 2|E|/|V|.
func (g *Graph) AverageDegree() float64 { return g.g.AverageDegree() }

// EdgeWeight returns the weight of edge (u,v) — of arc u→v when the graph
// is directed — if present.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	w, ok := g.g.EdgeWeight(graph.NodeID(u), graph.NodeID(v))
	return g.g.Float(w), ok
}

// Edges calls fn for every undirected edge (u < v) — for every arc u→v when
// the graph is directed.
func (g *Graph) Edges(fn func(u, v NodeID, w float64)) {
	g.g.ForEachEdge(func(u, v graph.NodeID, w graph.Dist) {
		fn(NodeID(u), NodeID(v), g.g.Float(w))
	})
}

// Quantum returns the grid the graph's weights lie on: every weight, and
// every edge offset a DB over the graph resolves, is a whole multiple of
// this power of two (see GraphBuilder).
func (g *Graph) Quantum() float64 { return g.g.Quantum() }

// loc resolves l for the engine, as every location is before a query, an
// insert or a distance uses it: its offset becomes the nearest count of the
// graph's quantum. An offset that is no count — NaN, negative, infinite or
// past 2^53 quanta — becomes graph.Inf, which lies on no edge, so the engine
// refuses it where it refuses any offset past its edge.
func (g *Graph) loc(l Location) core.Loc {
	pos := graph.Inf
	if l.Pos >= 0 && l.Pos <= g.g.Float(1<<53) { // NaN fails both
		pos = g.g.Round(l.Pos)
	}
	return core.Loc{U: graph.NodeID(l.U), V: graph.NodeID(l.V), Pos: pos}
}

// GraphBuilder assembles a Graph. Build puts every weight on one grid: with
// S the sum of the weights of every arc added (an edge is two arcs), the
// graph's quantum is Q = 2^(⌈log₂ S⌉ − 52) (Graph.Quantum), and each weight
// becomes its nearest count of Q. The engine, its indexes and its walkers
// add and compare those counts, so every distance is exact, two routes of
// equal length tie exactly and every algorithm sees the same ties; an API
// distance is its count times Q, the float64 an exact sum would give. The
// price is at most Q/2 per edge: a Neighbor.Distance or DB.Distance moves by
// at most Q/2 for every edge on its path (and Q/2 for each offset inside an
// edge), about 10⁻¹⁶ of the graph's total weight each.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraphBuilder creates a builder for numNodes nodes.
func NewGraphBuilder(numNodes int) *GraphBuilder {
	return &GraphBuilder{b: graph.NewBuilder(numNodes)}
}

// AddEdge records the undirected edge (u,v) with positive weight w, which
// Build rounds to the graph's quantum (see GraphBuilder). Duplicate edges
// keep the smallest weight; self loops are rejected. Zero weights are
// rejected too, at Build those that round to 0: with distinct nodes 0
// apart, eager and eager-M miss members.
func (gb *GraphBuilder) AddEdge(u, v NodeID, w float64) error {
	return gb.b.AddEdge(graph.NodeID(u), graph.NodeID(v), w)
}

// AddArc records the one-way arc u→v with positive weight w, rounded to
// the graph's quantum like AddEdge's (which says why not zero); parallel
// arcs keep the smallest weight. The built graph is directed exactly when
// some arc lacks an equal-weight twin after rounding, so AddArc(u,v,w) +
// AddArc(v,u,w) is AddEdge(u,v,w).
func (gb *GraphBuilder) AddArc(u, v NodeID, w float64) error {
	return gb.b.AddArc(graph.NodeID(u), graph.NodeID(v), w)
}

// SetCoords attaches a 2-D embedding (len must equal numNodes).
func (gb *GraphBuilder) SetCoords(coords []Coord) error {
	cs := make([]graph.Coord, len(coords))
	for i, c := range coords {
		cs[i] = graph.Coord{X: c.X, Y: c.Y}
	}
	return gb.b.SetCoords(cs)
}

// Build finalizes the graph.
func (gb *GraphBuilder) Build() (*Graph, error) {
	g, err := gb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Options configures how Open serves the graph.
type Options struct {
	// DiskBacked packs the adjacency lists into 4 KB slotted pages read
	// through an LRU buffer (the paper's storage scheme); physical page
	// I/O is then counted in the pool's "graph" tenant (PoolStats). When
	// false the graph is served from memory with no I/O accounting.
	DiskBacked bool
	// BufferPages is the LRU capacity in pages (default 256 = 1 MB of 4 KB
	// pages, the paper's default buffer). Zero keeps the default; use
	// NoBuffer for a zero-capacity buffer.
	BufferPages int
	// NoBuffer forces a zero-capacity buffer: every page access is a
	// counted physical read (the leftmost setting of Fig 21).
	NoBuffer bool
}

// DB is a queryable RNN database over one graph. Queries are described by
// a declarative Query value and executed through the engine surface — Run,
// RunBatch, Stream — with the substrate resolved by the planner (Plan).
//
// A DB is safe for concurrent use: queries (Run / RunBatch / Stream) may
// run from any number of goroutines, on memory- and disk-backed DBs alike,
// and PoolStats / BufferPool().ResetStats may be called while queries are in
// flight. The exceptions are mutating operations: mutating a point set
// (Insert / Remove, Place / Delete — which repair every substrate built over
// the set) and DropCache require that no query is running against the same
// state.
type DB struct {
	graph    *Graph
	store    graph.Access
	disk     *storage.DiskStore
	searcher *core.Searcher
	// pool is the shared buffer pool every paged substrate of this DB
	// attaches to (graph pages, materialized lists, hub labels, paged
	// edge points). Each substrate is bounded by its own BufferPages and
	// evicts only its own frames. A shard engine of DB.Shard holds its
	// parent's pool.
	pool *BufferPool
	// ownsPool: pool was created for this DB, not inherited from a
	// parent, so Close answers for the tenants still attached to it.
	ownsPool bool
}

// Layout chooses the order in which adjacency lists are packed into pages
// when the graph is disk-backed; locality of the layout directly controls
// buffer faults (the connectivity grouping of Section 3.1).
type Layout struct {
	order func(*graph.Graph) []graph.NodeID
}

// BFSLayout groups topological neighbours into the same pages (the
// default, approximating the clustering of Chan & Zhang the paper uses).
func BFSLayout() Layout {
	return Layout{order: storage.BFSOrder}
}

// RandomLayout shuffles nodes across pages — the no-locality baseline used
// by the layout ablation benchmark.
func RandomLayout(seed int64) Layout {
	return Layout{order: func(g *graph.Graph) []graph.NodeID {
		rng := newSeededRand(seed)
		order := make([]graph.NodeID, g.NumNodes())
		for i := range order {
			order[i] = graph.NodeID(i)
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order
	}}
}

// Open prepares a graph for querying with the default (BFS) page layout.
// A nil opt serves the graph from memory.
func Open(g *Graph, opt *Options) (*DB, error) {
	return OpenWithLayout(g, opt, BFSLayout())
}

// OpenWithLayout is Open with an explicit page layout (only meaningful for
// disk-backed graphs).
func OpenWithLayout(g *Graph, opt *Options, layout Layout) (*DB, error) {
	return openDB(g, opt, layout, nil)
}

// openDB is OpenWithLayout. A non-nil pool is a parent DB's, which the new
// DB shares: its graph pages attach there as a tenant of their own.
func openDB(g *Graph, opt *Options, layout Layout, pool *BufferPool) (*DB, error) {
	if g == nil {
		return nil, fmt.Errorf("graphrnn: nil graph")
	}
	db := &DB{graph: g, pool: pool, ownsPool: pool == nil}
	if pool == nil {
		db.pool = &BufferPool{p: storage.NewBufferPool(0)}
	}
	if opt != nil && opt.DiskBacked {
		if err := db.undirectedOnly("Options.DiskBacked packs one adjacency file"); err != nil {
			return nil, err
		}
		quota := opt.BufferPages
		if quota == 0 && !opt.NoBuffer {
			quota = 256
		}
		if opt.NoBuffer {
			quota = storage.NoCache
		}
		file := storage.NewMemFile(storage.DefaultPageSize)
		var order []graph.NodeID
		if layout.order != nil {
			order = layout.order(g.g)
		}
		bm := db.pool.attach("graph", file, quota)
		ds, err := storage.BuildDiskStoreBuffer(g.g, file, bm, order)
		if err != nil {
			_ = bm.Detach()
			file.Close()
			return nil, err
		}
		db.store = ds
		db.disk = ds
	} else {
		db.store = g.g
	}
	db.searcher = core.NewSearcher(db.store)
	return db, nil
}

// Graph returns the underlying graph.
func (db *DB) Graph() *Graph { return db.graph }

// ErrUndirectedOnly reports a request whose correctness needs symmetric
// distances, d(a,b) = d(b,a), issued on a directed graph. A graph with
// one-way arcs serves every query kind over node-resident point sets
// through eager, lazy-EP, brute force, KNN and hub-label indexes; it does
// not serve the lazy algorithm (its verifications prune the main walk with
// d(p→m) where Lemma 1 needs d(m→p)), materializations and eager-M (the
// border-node list repair of a deletion walks the same way in and out),
// edge-resident point sets and locations inside an edge (a position "on
// edge (u,v)" assumes the edge can be left through either endpoint),
// DB.Shard (the halo ring is cut by undirected hops) and Options.DiskBacked
// (one adjacency file, where the main walk needs the in-arcs). Matched with
// errors.Is.
var ErrUndirectedOnly = core.ErrUndirectedOnly

// undirectedOnly rejects what on a directed graph.
func (db *DB) undirectedOnly(what string) error {
	if !db.graph.Directed() {
		return nil
	}
	return fmt.Errorf("graphrnn: %s: %w", what, ErrUndirectedOnly)
}

// Close releases the adjacency store's buffer tenant back to the shared
// pool. Close the substrates first, then the DB: hub label indexes,
// materializations and paged point sets attach to the pool on their own
// and have their own Close methods, which the DB does not call. A DB that
// created its pool (every DB but the DiskBacked shard engines of DB.Shard,
// which share their parent's) checks that nothing is left attached, and
// returns an error naming the first tenant still there. Queries must not
// be in flight; the DB must not be used afterwards. Close is idempotent.
func (db *DB) Close() error {
	var err error
	if db.disk != nil {
		err = db.disk.Close()
		db.disk = nil
	}
	if left := db.PoolStats().Tenants; err == nil && db.ownsPool && len(left) > 0 {
		err = fmt.Errorf("graphrnn: %d tenant(s) left attached to the DB's pool, first %q: close substrates before their DB", len(left), left[0].Name)
	}
	return err
}

// IOStats describes physical page traffic: of a buffer pool, or of one of
// its tenants (PoolStats).
type IOStats struct {
	// Reads counts physical page reads (buffer faults).
	Reads int64
	// Hits counts logical reads served by the buffer.
	Hits int64
	// Writes counts physical page writes.
	Writes int64
	// Evictions counts frames pushed out by LRU replacement.
	Evictions int64
}

// HitRate returns the fraction of logical reads served from the buffer,
// or 0 when nothing was read.
func (s IOStats) HitRate() float64 {
	if s.Reads+s.Hits == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Reads+s.Hits)
}

// DropCache empties the DB's buffer pool for a cold start: the cached pages
// of every tenant — adjacency, materialized lists, hub labels, paged point
// files, and those of the disk-backed shard engines of its DB.Shard — are
// dropped, dirty ones written back first.
func (db *DB) DropCache() error { return db.pool.p.Invalidate() }

// Distance computes the exact network distance between two locations,
// +Inf when disconnected. Edge offsets are first rounded to the graph's
// quantum, so the result is a multiple of it; against the weights as added
// it moves by at most Q/2 per edge on the path and per offset (see
// GraphBuilder).
func (db *DB) Distance(a, b Location) (float64, error) {
	d, err := db.searcher.Distance(db.graph.loc(a), db.graph.loc(b))
	return db.graph.g.Float(d), err
}

func toNodeIDs(route []NodeID) []graph.NodeID {
	out := make([]graph.NodeID, len(route))
	for i, n := range route {
		out[i] = graph.NodeID(n)
	}
	return out
}

func fromPointIDs(in []points.PointID) []PointID {
	out := make([]PointID, len(in))
	for i, p := range in {
		out[i] = PointID(p)
	}
	return out
}

// Package graph defines the network model of Yiu et al. (TKDE'06): a
// weighted graph G = (V, E, W) whose network distance d(n_i, n_j) is the
// minimum weight sum over paths. The paper's networks are undirected; the
// extension its Section 7 leaves open — one-way arcs, e.g. road maps with
// one-way streets — is a property of the same type: a graph whose arcs do
// not all have an equal-weight twin carries a second CSR over the reversed
// arcs (In). The package provides the in-memory CSR representation, a
// builder, and the Access interface through which every query algorithm
// reads adjacency lists — either straight from memory or through the
// disk-backed store in internal/storage.
package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a graph node. Nodes are dense integers 0..NumNodes-1.
type NodeID int32

// Dist is a network distance as a count of the graph's quantum Q (see
// Builder): the distance is Dist·Q. Every weight is a positive count, so the
// engine adds and compares counts — exactly, with no tolerance — and a float64
// appears only where a distance leaves the engine (Graph.Float). A sum of
// weights along a simple path stays below 2^53, where float64(count)·Q is the
// very float64 sum of the weights.
type Dist uint64

// Inf is the distance of no path: it compares above every count, and Add
// saturates at it.
const Inf = Dist(math.MaxUint64)

// Add returns d+e, saturating at Inf.
func (d Dist) Add(e Dist) Dist {
	if s := d + e; s >= d {
		return s
	}
	return Inf
}

// Edge is one adjacency entry: the neighbour and the (positive) edge weight.
type Edge struct {
	To NodeID
	W  Dist
}

// Access is the read interface used by all query algorithms. Adjacency
// appends the adjacency list of n to buf (which may be nil) and returns the
// result; the contents are valid until the next Adjacency call on the same
// Access. Implementations are not safe for concurrent use.
type Access interface {
	NumNodes() int
	// LogQuantum returns log₂ Q: every weight is a count of 2^LogQuantum().
	LogQuantum() int
	Adjacency(n NodeID, buf []Edge) ([]Edge, error)
	// In returns the same network with every arc reversed: its Adjacency(n)
	// lists the arcs that enter n, so an expansion over it from q computes
	// d(n→q). A symmetric network — every arc has an equal-weight twin,
	// which is every network built from undirected edges — is its own
	// reverse and returns itself; `a.In() != a` is the test for one-way
	// arcs.
	In() Access
}

// Coord is an optional 2-D embedding of a node, used by spatial generators
// (weights = Euclidean length) and by nothing else: per Section 2.2 of the
// paper the algorithms deliberately never exploit coordinates.
type Coord struct {
	X, Y float64
}

// Graph is an immutable in-memory graph in CSR form, implementing Access.
// Adjacency lists hold out-arcs; direction is data, not a second type: a
// graph with one-way arcs additionally holds its reverse (in), itself a
// Graph over the in-arcs, and a symmetric graph holds none.
type Graph struct {
	offsets []int32
	targets []NodeID
	weights []Dist
	coords  []Coord // nil when the graph has no embedding
	in      *Graph  // the reversed arcs; nil when the graph is symmetric
	logQ    int     // every weight is a count of the quantum q = 2^logQ
	q       float64
}

// NumNodes implements Access.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// In implements Access.
func (g *Graph) In() Access {
	if g.in == nil {
		return g
	}
	return g.in
}

// Directed reports whether the graph has one-way arcs: some arc without an
// equal-weight twin in the opposite direction.
func (g *Graph) Directed() bool { return g.in != nil }

// NumEdges returns the number of undirected edges — of arcs, when the
// graph has one-way arcs.
func (g *Graph) NumEdges() int {
	if g.in != nil {
		return len(g.targets)
	}
	return len(g.targets) / 2
}

// Degree returns the number of (out-)neighbours of n.
func (g *Graph) Degree(n NodeID) int {
	return int(g.offsets[n+1] - g.offsets[n])
}

// Adjacency implements Access: it copies n's out-arcs from the CSR arrays
// into buf[:0], growing it as append does, and returns the result. It never
// hands out the graph's own arrays, so the caller may modify the result.
func (g *Graph) Adjacency(n NodeID, buf []Edge) ([]Edge, error) {
	if n < 0 || int(n) >= g.NumNodes() {
		return nil, fmt.Errorf("graph: node %d out of range [0,%d)", n, g.NumNodes())
	}
	buf = buf[:0]
	for i := g.offsets[n]; i < g.offsets[n+1]; i++ {
		buf = append(buf, Edge{To: g.targets[i], W: g.weights[i]})
	}
	return buf, nil
}

// EdgeWeight returns the weight of edge (u,v) — of arc u→v, when the graph
// has one-way arcs — and whether it exists.
func (g *Graph) EdgeWeight(u, v NodeID) (Dist, bool) {
	for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
		if g.targets[i] == v {
			return g.weights[i], true
		}
	}
	return 0, false
}

// Quantum returns Q, the grid every weight lies on: each is a whole
// multiple of Q, a power of two (see Builder).
func (g *Graph) Quantum() float64 { return g.q }

// LogQuantum implements Access.
func (g *Graph) LogQuantum() int { return g.logQ }

// Round returns the count of Q nearest x (halves away from zero): an offset
// on an edge rounded this way keeps every distance sum through it exact. x
// must be finite, non-negative and below 2^64 quanta. Q is a power of two,
// so the division is exact: only the rounding moves x.
func (g *Graph) Round(x float64) Dist { return Dist(math.Round(x / g.q)) }

// Float returns d as the float64 distance it counts, d·Q — exact for every
// count below 2^53 — and +Inf for Inf.
func (g *Graph) Float(d Dist) float64 {
	if d == Inf {
		return math.Inf(1)
	}
	return float64(d) * g.q
}

// Coords returns the node embedding, or nil if the graph has none.
func (g *Graph) Coords() []Coord { return g.coords }

// Coord returns the embedding of node n; ok is false when the graph carries
// no coordinates.
func (g *Graph) Coord(n NodeID) (Coord, bool) {
	if g.coords == nil {
		return Coord{}, false
	}
	return g.coords[n], true
}

// ForEachEdge calls fn once per undirected edge (u < v) — once per arc
// u→v, when the graph has one-way arcs.
func (g *Graph) ForEachEdge(fn func(u, v NodeID, w Dist)) {
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for i := g.offsets[u]; i < g.offsets[u+1]; i++ {
			if v := g.targets[i]; u < v || g.in != nil {
				fn(u, v, g.weights[i])
			}
		}
	}
}

// AverageDegree returns the mean adjacency list length: 2|E| / |V| on an
// undirected graph.
func (g *Graph) AverageDegree() float64 {
	if g.NumNodes() == 0 {
		return 0
	}
	return float64(len(g.targets)) / float64(g.NumNodes())
}

// Builder accumulates arcs and produces an immutable Graph. An undirected
// edge is its two arcs; parallel arcs keep the smallest weight; self loops
// are rejected.
//
// Build puts every weight on one grid: with S the sum of the weights of
// every arc added, the quantum is Q = 2^(⌈log₂ S⌉ − 52), and each weight
// becomes its nearest count of Q (a Dist) before arcs are deduplicated or
// twins matched. The counts sum to at most 2^52, so a simple path is at most
// 2^52 quanta and a hub label's two halves at most 2^53: every distance the
// engine forms is an exact integer sum, two routes of equal length compare
// equal, and float64(count)·Q gives the API the same float64 an exact sum of
// the weights would. (Should rounding carry the sum past 2^⌈log₂ S⌉, Q
// doubles, so that building again from a graph's own weights, or from any
// subset of them, moves none of them.) A weight moves by at most Q/2; one
// that rounds to 0 is refused.
type Builder struct {
	numNodes int
	arcs     []arc
	coords   []Coord
}

type arc struct {
	u, v NodeID
	// w is the weight as added until snap replaces it with its count of Q:
	// a whole number below 2^53, which a float64 holds exactly.
	w float64
}

// NewBuilder creates a builder for a graph with numNodes nodes.
func NewBuilder(numNodes int) *Builder {
	return &Builder{numNodes: numNodes}
}

// SetCoords attaches a node embedding; len(coords) must equal numNodes.
func (b *Builder) SetCoords(coords []Coord) error {
	if len(coords) != b.numNodes {
		return fmt.Errorf("graph: %d coords for %d nodes", len(coords), b.numNodes)
	}
	b.coords = coords
	return nil
}

// AddEdge records the undirected edge (u,v) with weight w: the arcs u→v
// and v→u.
func (b *Builder) AddEdge(u, v NodeID, w float64) error {
	if err := b.AddArc(u, v, w); err != nil {
		return err
	}
	b.arcs = append(b.arcs, arc{v, u, w})
	return nil
}

// AddArc records the one-way arc u→v with positive weight w. A graph is
// directed exactly when Build finds an arc without an equal-weight twin,
// so AddArc(u,v,w) + AddArc(v,u,w) is AddEdge(u,v,w).
//
// A zero weight is rejected because the eager family is wrong when
// distinct nodes are 0 apart: on the path 0–1–2 with both weights 0 and a
// point on every node, all three points are reverse 1-NNs of node 0, and
// eager answers only the one on node 0 (eager-M disagrees likewise).
func (b *Builder) AddArc(u, v NodeID, w float64) error {
	if u == v {
		return fmt.Errorf("graph: self loop on node %d", u)
	}
	if u < 0 || int(u) >= b.numNodes || v < 0 || int(v) >= b.numNodes {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.numNodes)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("graph: edge (%d,%d) has non-positive weight %v", u, v, w)
	}
	b.arcs = append(b.arcs, arc{u, v, w})
	return nil
}

// NumNodes returns the declared node count.
func (b *Builder) NumNodes() int { return b.numNodes }

// Build produces the CSR graph with every weight on its grid (see
// Builder). Parallel arcs collapse to the minimum weight; adjacency lists
// are sorted by neighbour id for determinism. The reverse CSR is kept only
// when it differs from the forward one.
func (b *Builder) Build() (*Graph, error) {
	logQ, err := b.snap()
	if err != nil {
		return nil, err
	}
	// Arcs bucketed by source come out sorted by (u, v, w) once each
	// node's few arcs are: no comparison sort over all of them.
	arcs := b.bucket(b.arcs, false)
	for lo := 0; lo < len(arcs); {
		hi := lo + 1
		for hi < len(arcs) && arcs[hi].u == arcs[lo].u {
			hi++
		}
		slices.SortFunc(arcs[lo:hi], func(x, y arc) int {
			return cmp.Or(cmp.Compare(x.v, y.v), cmp.Compare(x.w, y.w))
		})
		lo = hi
	}
	b.arcs = slices.CompactFunc(arcs, func(x, y arc) bool { return x.u == y.u && x.v == y.v })

	g, in := b.csr(b.arcs), b.csr(b.bucket(b.arcs, true))
	g.logQ, in.logQ = logQ, logQ
	g.q, in.q = math.Ldexp(1, logQ), math.Ldexp(1, logQ)
	if !slices.Equal(g.targets, in.targets) || !slices.Equal(g.weights, in.weights) || !slices.Equal(g.offsets, in.offsets) {
		g.in, in.in = in, g
	}
	return g, nil
}

// minLogQ is the exponent of the smallest positive float64: every float64
// is a multiple of it.
const minLogQ = -1074

// snap rounds every arc weight to a count of the grid of the arcs added and
// returns log₂ Q. Q starts at 2^(⌈log₂ S⌉ − 52) and doubles while the counts
// sum to more than 2^52, which keeps the grid of a graph built from rounded
// weights no coarser than theirs.
func (b *Builder) snap() (int, error) {
	var s float64
	for _, a := range b.arcs {
		s += a.w
	}
	if math.IsInf(s, 1) {
		return 0, fmt.Errorf("graph: the %d arc weights sum past the float64 range; no grid holds their sums", len(b.arcs))
	}
	frac, e := math.Frexp(s) // s = frac·2^e, frac in [0.5, 1)
	if frac == 0.5 {
		e-- // s is a power of two
	}
	for ; ; e++ {
		logQ := max(e-52, minLogQ)
		q := math.Ldexp(1, logQ)
		var sum float64
		for _, a := range b.arcs {
			c := math.Round(a.w / q)
			if c == 0 {
				return 0, fmt.Errorf("graph: arc (%d,%d) of weight %v rounds to 0 on the graph's quantum %v (2^%d)", a.u, a.v, a.w, q, logQ)
			}
			sum += c
		}
		if sum <= math.Ldexp(1, e-logQ) {
			for i := range b.arcs {
				b.arcs[i].w = math.Round(b.arcs[i].w / q)
			}
			return logQ, nil
		}
	}
}

// bucket returns the arcs — reversed: every arc u→v as v→u — grouped by
// source node in ascending order, a stable counting sort: arcs sorted by
// (u, v) come back, reversed, sorted by (v, u).
func (b *Builder) bucket(arcs []arc, reversed bool) []arc {
	next := make([]int32, b.numNodes+1)
	for _, a := range arcs {
		if reversed {
			a.u = a.v
		}
		next[a.u+1]++
	}
	for i := 0; i < b.numNodes; i++ {
		next[i+1] += next[i]
	}
	out := make([]arc, len(arcs))
	for _, a := range arcs {
		if reversed {
			a.u, a.v = a.v, a.u
		}
		out[next[a.u]] = a
		next[a.u]++
	}
	return out
}

// csr packs arcs sorted by (u, v) into a Graph.
func (b *Builder) csr(arcs []arc) *Graph {
	g := &Graph{
		offsets: make([]int32, b.numNodes+1),
		targets: make([]NodeID, len(arcs)),
		weights: make([]Dist, len(arcs)),
		coords:  b.coords,
	}
	for i, a := range arcs {
		g.offsets[a.u+1]++
		g.targets[i], g.weights[i] = a.v, Dist(a.w)
	}
	for i := 0; i < b.numNodes; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	return g
}

// ConnectedComponent returns the node ids of the largest connected
// component of a symmetric graph, sorted ascending. Generators use it to
// "clean" networks the
// way the paper cleans DBLP and the San Francisco map.
func ConnectedComponent(g *Graph) []NodeID {
	n := g.NumNodes()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var best, bestSize int32 = -1, 0
	var queue []NodeID
	var buf []Edge
	next := int32(0)
	for s := NodeID(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := next
		next++
		size := int32(0)
		queue = append(queue[:0], s)
		comp[s] = id
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			buf, _ = g.Adjacency(u, buf)
			for _, e := range buf {
				if comp[e.To] < 0 {
					comp[e.To] = id
					queue = append(queue, e.To)
				}
			}
		}
		if size > bestSize {
			best, bestSize = id, size
		}
	}
	out := make([]NodeID, 0, bestSize)
	for i := NodeID(0); int(i) < n; i++ {
		if comp[i] == best {
			out = append(out, i)
		}
	}
	return out
}

// InducedSubgraph relabels keep (which must be sorted ascending) to
// 0..len(keep)-1 and returns the subgraph of the symmetric graph g induced
// by those nodes, along with the old-to-new id mapping (-1 for dropped
// nodes).
func InducedSubgraph(g *Graph, keep []NodeID) (*Graph, []NodeID, error) {
	remap := make([]NodeID, g.NumNodes())
	for i := range remap {
		remap[i] = -1
	}
	for new, old := range keep {
		remap[old] = NodeID(new)
	}
	b := NewBuilder(len(keep))
	if g.coords != nil {
		coords := make([]Coord, len(keep))
		for new, old := range keep {
			coords[new] = g.coords[old]
		}
		if err := b.SetCoords(coords); err != nil {
			return nil, nil, err
		}
	}
	var errOut error
	g.ForEachEdge(func(u, v NodeID, w Dist) {
		nu, nv := remap[u], remap[v]
		if nu < 0 || nv < 0 || errOut != nil {
			return
		}
		if err := b.AddEdge(nu, nv, g.Float(w)); err != nil {
			errOut = err
		}
	})
	if errOut != nil {
		return nil, nil, errOut
	}
	sub, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return sub, remap, nil
}

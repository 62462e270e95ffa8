// Package oracle answers reverse k-nearest-neighbor queries by the
// definition, for tests, sharing no code with the algorithms it judges. It
// runs one full Dijkstra from every candidate p over a plain arc list and
// keeps p's distance to every node and r_k(p), the k-th smallest distance
// from p to a competitor (ReHub's offline phase, nodes in place of hubs).
// The paper's tie-inclusive membership rule is then arithmetic:
//
//	p ∈ RkNN(q)  ⇔  |{p' : d(p→p') < d(p→q)}| < k  ⇔  d(p→q) ≤ r_k(p), d(p→q) < ∞
package oracle

import (
	"container/heap"
	"math"
	"slices"
)

// Arc is the one-way arc U→V of weight W; an undirected edge is two arcs.
type Arc struct {
	U, V int
	W    float64
}

// Loc is node U when U == V, else the position on edge (U,V), U < V, at
// offset Pos from U. Locations inside an edge assume the edge's two arcs
// (an undirected graph), as edge residency does.
type Loc struct {
	U, V int
	Pos  float64
}

// Oracle holds the candidates' distances to the nodes and competitors.
type Oracle struct {
	cands []Loc
	bi    bool               // the competitors are sites, not the candidates
	out   [][]Arc            // out[n] = the arcs leaving node n
	w     map[[2]int]float64 // edge (U,V) → weight of arc U→V
	dist  [][]float64        // dist[i][n] = d(cands[i] → n)
	comp  [][]float64        // ascending distances from cands[i] to its competitors
}

// New builds the oracle over a graph of n nodes. With sites nil every
// candidate competes with every other one (two at one location are 0
// apart); otherwise the competitors are the sites.
func New(n int, arcs []Arc, cands, sites []Loc) *Oracle {
	o := &Oracle{cands: cands, bi: sites != nil, out: make([][]Arc, n), w: make(map[[2]int]float64, len(arcs))}
	for _, a := range arcs {
		o.out[a.U] = append(o.out[a.U], a)
		if w, ok := o.w[[2]int{a.U, a.V}]; !ok || a.W < w {
			o.w[[2]int{a.U, a.V}] = a.W
		}
	}
	comps := sites
	if sites == nil {
		comps = cands
	}
	for i, p := range cands {
		d := dijkstra(o.out, o.anchors(p))
		var c []float64
		for j, s := range comps {
			if sites != nil || j != i {
				c = append(c, o.reach(d, p, s))
			}
		}
		slices.Sort(c)
		o.dist, o.comp = append(o.dist, d), append(o.comp, c)
	}
	return o
}

// Members returns, ascending, the indexes of the candidates that are
// members of RkNN(q) for some q of qs: one location answers the point and
// bichromatic kinds, a route's nodes the continuous one.
func (o *Oracle) Members(k int, qs ...Loc) []int {
	var out []int
	for i, p := range o.cands {
		r := math.Inf(1)
		if k <= len(o.comp[i]) {
			r = o.comp[i][k-1]
		}
		for _, q := range qs {
			if d := o.reach(o.dist[i], p, q); !math.IsInf(d, 1) && d <= r {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// anchor is a node a location leaves through, off away from it.
type anchor struct {
	node int
	off  float64
}

func (o *Oracle) anchors(l Loc) []anchor {
	if l.U == l.V {
		return []anchor{{l.U, 0}}
	}
	return []anchor{{l.U, l.Pos}, {l.V, o.w[[2]int{l.U, l.V}] - l.Pos}}
}

// reach is d(p → q) given d, the node distances from p: the best anchor of
// q, or the direct stretch when both sit inside one edge.
func (o *Oracle) reach(d []float64, p, q Loc) float64 {
	best := math.Inf(1)
	for _, a := range o.anchors(q) {
		best = min(best, d[a.node]+a.off)
	}
	if p.U != p.V && p.U == q.U && p.V == q.V {
		best = min(best, math.Abs(p.Pos-q.Pos))
	}
	return best
}

// dijkstra returns the distance from the sources to every node over out.
func dijkstra(out [][]Arc, src []anchor) []float64 {
	d, h := make([]float64, len(out)), &queue{}
	for i := range d {
		d[i] = math.Inf(1)
	}
	for _, a := range src {
		if a.off < d[a.node] {
			d[a.node] = a.off
			heap.Push(h, a)
		}
	}
	for h.Len() > 0 {
		a := heap.Pop(h).(anchor)
		if a.off > d[a.node] {
			continue // stale
		}
		for _, e := range out[a.node] {
			if nd := a.off + e.W; nd < d[e.V] {
				d[e.V] = nd
				heap.Push(h, anchor{e.V, nd})
			}
		}
	}
	return d
}

// queue is a binary min-heap of tentative node distances.
type queue []anchor

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i].off < q[j].off }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(anchor)) }
func (q *queue) Pop() any          { x := (*q)[len(*q)-1]; *q = (*q)[:len(*q)-1]; return x }

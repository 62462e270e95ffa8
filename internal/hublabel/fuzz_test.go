package hublabel

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"graphrnn/internal/graph"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// arcGraph is a graph.Access over plain adjacency lists that, unlike
// graph.Builder, admits zero-weight arcs: the fuzz target wants points at
// distance 0 of each other and reaches of 0.
type arcGraph struct {
	adj [][]graph.Edge
	rev *arcGraph // nil when every arc has an equal-weight twin
}

func (g *arcGraph) NumNodes() int { return len(g.adj) }

// LogQuantum is 0: the weights are whole counts of 1.
func (g *arcGraph) LogQuantum() int { return 0 }

func (g *arcGraph) Adjacency(n graph.NodeID, buf []graph.Edge) ([]graph.Edge, error) {
	return append(buf[:0], g.adj[n]...), nil
}

func (g *arcGraph) In() graph.Access {
	if g.rev == nil {
		return g
	}
	return g.rev
}

// newArcGraph builds the graph of a matrix of whole weights, +Inf meaning
// no arc.
func newArcGraph(w [][]float64) *arcGraph {
	n := len(w)
	g, rev := &arcGraph{adj: make([][]graph.Edge, n)}, &arcGraph{adj: make([][]graph.Edge, n)}
	symmetric := true
	for u := range w {
		for v, d := range w[u] {
			if !math.IsInf(d, 1) {
				g.adj[u] = append(g.adj[u], graph.Edge{To: graph.NodeID(v), W: graph.Dist(d)})
				rev.adj[v] = append(rev.adj[v], graph.Edge{To: graph.NodeID(u), W: graph.Dist(d)})
			}
			symmetric = symmetric && d == w[v][u]
		}
	}
	if !symmetric {
		g.rev, rev.rev = rev, g
	}
	return g
}

// fuzzOp is one step of a fuzz case: an insert on node a, a delete of the
// a-th live point, or the queries of checkQueries from node a.
type fuzzOp struct{ kind, a, b byte }

// fuzzHubLabelCase decodes fuzz bytes into a graph of at most 48 nodes with
// weights in {0,1,2,3} — every path sum exact in float64, so labels and the
// oracle must agree bit for bit — a point set, maxK and a step
// sequence. Layout: [n, maxK, arcs, six bytes of point bitmask], then arcs
// (u, v, w) triples — bit 2 of w makes the arc one-way, otherwise it is an
// edge; parallel arcs keep the lighter — then (kind, a, b) steps. ok is false
// when the bytes hold no header.
func fuzzHubLabelCase(data []byte) (g *arcGraph, ps *points.NodeSet, maxK int, ops []fuzzOp, ok bool) {
	const header, maxOps = 9, 64
	if len(data) < header {
		return nil, nil, 0, nil, false
	}
	n := 2 + int(data[0])%47
	maxK = 1 + int(data[1])%4
	w := make([][]float64, n)
	for u := range w {
		w[u] = make([]float64, n)
		for v := range w[u] {
			w[u][v] = math.Inf(1)
		}
	}
	rest := data[header:]
	for arcs := int(data[2]); arcs > 0 && len(rest) >= 3; arcs, rest = arcs-1, rest[3:] {
		u, v, d := int(rest[0])%n, int(rest[1])%n, float64(rest[2]%4)
		if u == v {
			continue
		}
		w[u][v] = min(w[u][v], d)
		if rest[2]&4 == 0 {
			w[v][u] = min(w[v][u], d)
		}
	}
	ps = points.NewNodeSet(n)
	for i := 0; i < n; i++ {
		if data[3+i/8]>>(i%8)&1 == 1 {
			_, _ = ps.Place(graph.NodeID(i)) // a fresh node of a fresh set: cannot fail
		}
	}
	for ; len(rest) >= 3 && len(ops) < maxOps; rest = rest[3:] {
		ops = append(ops, fuzzOp{rest[0] % 3, rest[1], rest[2]})
	}
	return newArcGraph(w), ps, maxK, ops, true
}

// FuzzHubLabelAgreement: on any small graph — zero and integer weights,
// ties, disconnected parts, one-way arcs — and through any sequence of
// inserts and deletes, the reverse index answers RkNNExec (a point hidden or
// not) and ContinuousRkNNExec like the oracle for every k <=
// maxK, keeps the invariants of the pruned phase 1 after every
// step, and stays field for field what NewIndex builds over the surviving
// points: the hub-label rows of the substrate-agreement property. The seeds
// under testdata/fuzz are a unit grid, zero-weight clusters with an
// unreachable part, a one-way ring with chords, a set drained below maxK+1
// points, and random cases.
func FuzzHubLabelAgreement(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, ps, maxK, ops, ok := fuzzHubLabelCase(data)
		if !ok {
			return
		}
		l, err := buildSeq(g)
		if err != nil {
			t.Fatal(err)
		}
		idx, err := NewIndex(l, maxK, pointsOf(ps))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkInvariants(idx); err != nil {
			t.Fatalf("built: %v", err)
		}
		n := g.NumNodes()
		for i, op := range ops {
			pts := ps.Points()
			var bad error
			switch {
			case op.kind == 0:
				at := graph.NodeID(int(op.a) % n)
				p, err := ps.Place(at)
				if err != nil {
					continue // node taken
				}
				if _, err := idx.Insert(p, at); err != nil {
					t.Fatalf("step %d: insert %d on %d: %v", i, p, at, err)
				}
				bad = checkMaintained(idx, ps)
			case op.kind == 1 && len(pts) > 0:
				p := pts[int(op.a)%len(pts)]
				if err := ps.Delete(p); err != nil {
					t.Fatal(err)
				}
				if _, err := idx.Delete(p); err != nil {
					t.Fatalf("step %d: delete %d: %v", i, p, err)
				}
				bad = checkMaintained(idx, ps)
			default:
				q := graph.NodeID(int(op.a) % n)
				hidden := points.NoPoint
				if own, has := ps.PointAt(q); has && op.b&1 == 1 {
					hidden = own
				} else if op.b&2 == 2 && len(pts) > 0 {
					hidden = pts[int(op.b>>2)%len(pts)]
				}
				route := []graph.NodeID{q, graph.NodeID(int(op.b) % n), graph.NodeID(int(op.a) * int(op.b) % n)}
				if bad = checkQueries(idx, g, ps, q, route, hidden); bad == nil {
					bad = checkInvariants(idx)
				}
			}
			if bad != nil {
				t.Fatalf("step %d (%+v), maxK %d, points %v: %v", i, op, maxK, ps.Table(), bad)
			}
		}
	})
}

// FuzzLabelFile feeds arbitrary bytes, cut into 64-byte pages, to
// OpenStoreBuffer and then to every label read and the page copy: each
// returns an error or labels whose hubs are below n and ascending and whose
// distances are counts below graph.Inf — never a panic, never an allocation
// the file's size does not bound. The seeds are a healthy two-sided file,
// the same file with every hub id past the graph, its offsets cut short, and
// its out side's unit set to 2^1000.
func FuzzLabelFile(f *testing.F) {
	const pageSize = 64
	w := [][]float64{ // a one-way ring with two chords and a zero-weight arc
		{math.Inf(1), 1, math.Inf(1), math.Inf(1), 3},
		{math.Inf(1), math.Inf(1), 2, math.Inf(1), math.Inf(1)},
		{0, math.Inf(1), math.Inf(1), 1, math.Inf(1)},
		{math.Inf(1), 2, math.Inf(1), math.Inf(1), 1},
		{1, math.Inf(1), math.Inf(1), math.Inf(1), math.Inf(1)},
	}
	l, err := buildSeq(newArcGraph(w))
	if err != nil {
		f.Fatal(err)
	}
	mem := storage.NewMemFile(pageSize)
	if err := Write(l, mem, 0); err != nil {
		f.Fatal(err)
	}
	var healthy []byte
	page := make([]byte, pageSize)
	for id := storage.PageID(0); int(id) < mem.NumPages(); id++ {
		if err := mem.Read(id, page); err != nil {
			f.Fatal(err)
		}
		healthy = append(healthy, page...)
	}
	s, err := openStore(mem, 2)
	if err != nil || !s.Directed() {
		f.Fatalf("seed file: directed %v, %v", s != nil && s.Directed(), err)
	}
	badHubs := slices.Clone(healthy)
	for _, side := range []int{0, 1} {
		set := s.sides()[side]
		for i := range set.size() {
			at := pageSize + int(s.entriesAt[side]) + i*set.width
			copy(badHubs[at:], hubBytes(set, 1<<(8*set.hubW)-1))
		}
	}
	coarse := slices.Clone(healthy)
	binary.LittleEndian.PutUint16(coarse[sideAt+2:], 1000)
	f.Add(healthy)
	f.Add(badHubs)
	f.Add(healthy[:pageSize+4*l.NumNodes()/2])
	f.Add(coarse)

	f.Fuzz(func(t *testing.T, data []byte) {
		mem := storage.NewMemFile(pageSize)
		for len(data) > 0 {
			page := make([]byte, pageSize)
			data = data[copy(page, data):]
			if _, err := mem.Append(page); err != nil {
				t.Fatal(err)
			}
		}
		s, err := openStore(mem, 2)
		if err != nil {
			return
		}
		var buf []Entry
		for v := graph.NodeID(0); int(v) < s.NumNodes(); v++ {
			for _, read := range []func(graph.NodeID, []Entry) ([]Entry, error){s.OutLabel, s.InLabel} {
				if buf, err = read(v, buf); err != nil {
					continue
				}
				for i, e := range buf {
					if e.Hub < 0 || int(e.Hub) >= s.NumNodes() || i > 0 && e.Hub <= buf[i-1].Hub {
						t.Fatalf("node %d: hub %d at entry %d of %v, %d nodes", v, e.Hub, i, buf, s.NumNodes())
					}
					if e.Dist >= graph.Inf {
						t.Fatalf("node %d: entry %d of %v is no count below graph.Inf", v, i, buf)
					}
				}
			}
		}
		if err := s.CopyTo(storage.NewMemFile(pageSize)); err != nil {
			t.Fatalf("page copy: %v", err)
		}
	})
}

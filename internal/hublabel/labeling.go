// Package hublabel implements a 2-hop hub labeling over the networks of
// internal/graph and a ReHub-style reverse index that answers reverse
// k-nearest-neighbor queries by label-list intersection instead of network
// expansion (Efentakis & Pfoser, "ReHub: Extending Hub Labels for Reverse
// k-Nearest Neighbor Queries on Large-Scale Networks").
//
// The labeling is built with pruned landmark labeling (Akiba, Iwata &
// Yoshida, adapted to weighted graphs via Dijkstra): the expansion from each
// landmark is pruned wherever the labels built so far already certify a
// distance at least as good. The landmark order decides how large the labels
// get and nothing else. It is a nested-dissection-style order in two parts
// (buildOrder): a capped min-degree elimination peels the graph from the
// outside in, and the peeled nodes sweep last, in reverse elimination order —
// the separators of a near-planar network (road maps, grids) before the
// regions they separate; the core the peel cannot reach without filling in
// cliques — the hubs of a scale-free graph, almost nothing of a road map —
// sweeps first, ranked by sampled shortest-path-tree centrality. Against the
// centrality ranking alone the labels of a 20K-node road map are 44 % smaller
// (2 551 940 → 1 438 383 entries, measured before weights lay on the graph's
// quantum; 1 180 199 on it, where covers' ties are exact) and no family's
// grow; elimCap has the table. The result is a 2-hop cover — for every connected pair (u, v) some
// hub on a shortest u→v path appears in both labels, so
//
//	d(u, v) = min over common hubs h of d(u→h) + d(h→v)
//
// holds exactly. Undirected graphs carry one label per node; directed
// graphs carry a forward label L_out(v) = {(h, d(v→h))} and a backward
// label L_in(v) = {(h, d(h→v))}.
//
// The reverse index (Index) answers a query in two phases over those labels
// and nothing else. Phase 1 folds the forward hub lists under the query's
// backward label into d(p→q), pruned by reach: a point farther from the
// query than its own (maxK+1)-th nearest other point has maxK visible points
// strictly closer even with one hidden, so it is a member at no k <= maxK,
// and every hub-list entry carries an upper bound on the largest reach among
// itself and its successors — the scan of a list stops at the first entry
// whose distance sum exceeds its bound and skips every entry whose sum
// exceeds its own point's reach. The invariant bound[i] >= max reach(list[i:])
// holds whenever a query can run; a bound may only ever err upwards (that
// scans further), because one that errs downwards silently drops members.
// Phase 2 counts, among the maxK+1 materialized nearest points of each
// survivor, the visible ones strictly closer than the query; with that many
// slots the count always decides.
//
// A labeling has one encoding, in memory and on disk: each side's CSR
// offsets and its entries packed at the width the graph needs (labelSet).
// Write streams those bytes onto raw pages of an internal/storage paged
// file, and a Store serves them back through an LRU buffer and the same
// decode, so an expensive build survives process restarts and label reads
// are I/O-accounted like every other substrate in this repository.
package hublabel

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"slices"

	"graphrnn/internal/graph"
	"graphrnn/internal/pq"
)

// Entry is one hub label entry: a hub node and the distance between the
// labeled node and the hub (direction depends on the label side), a count of
// the graph's quantum.
type Entry struct {
	Hub  graph.NodeID
	Dist graph.Dist
}

// Source serves per-node labels to the query side, either from memory
// (*Labeling) or through a paged file and LRU buffer (*Store).
// Implementations are safe for concurrent readers.
type Source interface {
	NumNodes() int
	Directed() bool
	// OutLabel appends L_out(n) — entries (h, d(n→h)) sorted by hub id —
	// to buf and returns the result.
	OutLabel(n graph.NodeID, buf []Entry) ([]Entry, error)
	// InLabel appends L_in(n) — entries (h, d(h→n)) sorted by hub id. For
	// undirected labelings it equals OutLabel.
	InLabel(n graph.NodeID, buf []Entry) ([]Entry, error)
}

// labelSet is a CSR bundle of per-node labels sorted by hub id, packed at
// the width the side needs. Entry i of the side is the width bytes at
// entries[i·width:]: the hub id in hubW bytes, then the distance shifted
// right by shift in width − hubW bytes, both little endian. 2^shift is the
// side's unit, the largest power of two dividing every distance of the side
// (a count of the graph's quantum), so a distance is its field shifted back
// left. Built by finalize, entries lives in a read-only mapping
// outside the Go heap where the platform has one (newLabelMem), owned by the
// enclosing Labeling: it is read only through a *labelSet into that Labeling
// and never handed out. It runs labelSlack bytes past the last entry, so
// every field decodes with an 8-byte load.
type labelSet struct {
	offsets     []int32
	entries     []byte
	hubW, width int
	shift       uint
}

// labelSlack is what a side's entries run past its last entry: an 8-byte
// load at the last distance count stays inside them.
const labelSlack = 8

func (s *labelSet) label(n graph.NodeID, buf []Entry) []Entry {
	lo, hi := int(s.offsets[n]), int(s.offsets[n+1])
	if lo == hi {
		return buf[:0]
	}
	buf = slices.Grow(buf[:0], hi-lo)[:hi-lo]
	s.decode(buf, s.entries[lo*s.width:hi*s.width+labelSlack])
	// s points into the Labeling whose cleanup unmaps the entries: it must
	// stay reachable until the last read.
	runtime.KeepAlive(s)
	return buf
}

// decode unpacks len(buf) entries from b. It is label's loop on its own:
// with fewer values live, its locals stay in registers instead of spilling
// to the stack on every entry.
func (s *labelSet) decode(buf []Entry, b []byte) {
	w, hubW, shift := s.width, s.hubW, s.shift&63
	hubMask, distMask := fieldMask(hubW), fieldMask(w-hubW)
	// hubW < 8: the &63 only spares the shift its range check.
	distShift := uint(8*hubW) & 63
	if w <= 8 { // one load holds the whole entry
		for i, at := 0, 0; i < len(buf); i, at = i+1, at+w {
			x := binary.LittleEndian.Uint64(b[at:])
			buf[i] = Entry{Hub: graph.NodeID(x & hubMask), Dist: graph.Dist(x>>distShift&distMask) << shift}
		}
		return
	}
	for i, at := 0, 0; i < len(buf); i, at = i+1, at+w {
		buf[i] = Entry{
			Hub:  graph.NodeID(binary.LittleEndian.Uint64(b[at:]) & hubMask),
			Dist: graph.Dist(binary.LittleEndian.Uint64(b[at+hubW:])&distMask) << shift,
		}
	}
}

// fieldMask is the mask of a little-endian field of size bytes, size ≤ 8.
func fieldMask(size int) uint64 { return ^uint64(0) >> uint(64-8*size) }

func (s *labelSet) size() int { return int(s.offsets[len(s.offsets)-1]) }

// bytes is the set's size: its packed entries and its offsets.
func (s *labelSet) bytes() int64 {
	return int64(s.size())*int64(s.width) + int64(len(s.offsets))*4
}

// Labeling is an immutable in-memory 2-hop labeling. A Store embeds one
// without entries — offsets, widths and shifts only — for its counts.
type Labeling struct {
	numNodes int
	directed bool
	out, in  labelSet // one set under both names when undirected
}

// newLabeling packs per-node entry lists into a labeling; an undirected
// one reads only out. Each side's entries are sealed read-only and handed to
// the labeling, which unmaps them once it is unreachable; Close on an index
// over it does not, so a query still holding a retired index reads valid
// labels.
func newLabeling(n int, directed bool, out, in [][]Entry) *Labeling {
	l := &Labeling{numNodes: n, directed: directed}
	var mapped bool
	l.out, mapped = finalize(n, out)
	l.seal(&l.out, mapped)
	l.in = l.out
	if directed {
		l.in, mapped = finalize(n, in)
		l.seal(&l.in, mapped)
	}
	return l
}

// NumNodes implements Source.
func (l *Labeling) NumNodes() int { return l.numNodes }

// Directed implements Source.
func (l *Labeling) Directed() bool { return l.directed }

// OutLabel implements Source.
func (l *Labeling) OutLabel(n graph.NodeID, buf []Entry) ([]Entry, error) {
	if n < 0 || int(n) >= l.numNodes {
		return nil, fmt.Errorf("hublabel: node %d out of range [0,%d)", n, l.numNodes)
	}
	return l.out.label(n, buf), nil
}

// InLabel implements Source.
func (l *Labeling) InLabel(n graph.NodeID, buf []Entry) ([]Entry, error) {
	if n < 0 || int(n) >= l.numNodes {
		return nil, fmt.Errorf("hublabel: node %d out of range [0,%d)", n, l.numNodes)
	}
	return l.in.label(n, buf), nil
}

// Entries returns the total number of label entries (both sides).
func (l *Labeling) Entries() int {
	if l.directed {
		return l.out.size() + l.in.size()
	}
	return l.out.size()
}

// Bytes returns the size of the labels, both sides: each side's packed
// entries at its own width — held outside the Go heap where the platform
// maps memory — plus its 4-byte CSR offsets. On a Store it is the label
// stream of the file, the same bytes.
func (l *Labeling) Bytes() int64 {
	if l.directed {
		return l.out.bytes() + l.in.bytes()
	}
	return l.out.bytes()
}

// AverageLabelSize returns the mean entries per node per side.
func (l *Labeling) AverageLabelSize() float64 {
	if l.numNodes == 0 {
		return 0
	}
	sides := 1
	if l.directed {
		sides = 2
	}
	return float64(l.Entries()) / float64(l.numNodes*sides)
}

// mergeDist intersects two labels sorted by hub id; graph.Inf when they
// share no hub.
func mergeDist(a, b []Entry) graph.Dist {
	best := graph.Inf
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Hub < b[j].Hub:
			i++
		case a[i].Hub > b[j].Hub:
			j++
		default:
			if d := a[i].Dist + b[j].Dist; d < best {
				best = d
			}
			i++
			j++
		}
	}
	return best
}

// --- Build -----------------------------------------------------------------

// landmarkProbe answers the pruning query of one landmark sweep in at most
// |L(v)| steps per visited node: the current landmark's label is loaded into
// a dense hub-indexed array once per sweep, so no merge runs at pop time, and
// the cover test stops at the first covering hub.
type landmarkProbe struct {
	hd     []graph.Dist   // d(landmark, hub); graph.Inf where the loaded label has no entry
	loaded []graph.NodeID // hubs of the loaded label, to clear hd on the next load
}

func newLandmarkProbe(n int) *landmarkProbe {
	lp := &landmarkProbe{hd: make([]graph.Dist, n)}
	for i := range lp.hd {
		lp.hd[i] = graph.Inf
	}
	return lp
}

// load installs the landmark-side label for the coming sweep.
func (lp *landmarkProbe) load(label []Entry) {
	for _, h := range lp.loaded {
		lp.hd[h] = graph.Inf
	}
	lp.loaded = lp.loaded[:0]
	for _, e := range label {
		lp.hd[e.Hub] = e.Dist
		lp.loaded = append(lp.loaded, e.Hub)
	}
}

// covers reports whether the labels already certify a distance of at most
// dist between the loaded landmark and the node owning label: some common hub
// with d(landmark, hub) + d(hub, node) <= dist. The same predicate as "the
// labeled distance is at most dist", decided at the first covering hub —
// labels grow in rank order, so a covered node usually meets its covering
// high-rank hub among its first entries.
func (lp *landmarkProbe) covers(label []Entry, dist graph.Dist) bool {
	for _, e := range label {
		if lp.hd[e.Hub].Add(e.Dist) <= dist {
			return true
		}
	}
	return false
}

// dijkstraState is the scratch of one pruned expansion. Every push is a
// popped distance plus a non-negative weight, so the queue is monotone and
// pops in the (distance, push) order a pq.Heap would.
type dijkstraState struct {
	dist  []graph.Dist
	seen  []uint32
	done  []uint32
	ep    uint32
	queue pq.Radix[graph.NodeID]
	adj   []graph.Edge
}

func newDijkstraState(n int) *dijkstraState {
	return &dijkstraState{dist: make([]graph.Dist, n), seen: make([]uint32, n), done: make([]uint32, n)}
}

func (d *dijkstraState) begin() {
	d.ep++
	if d.ep == 0 {
		for i := range d.seen {
			d.seen[i], d.done[i] = 0, 0
		}
		d.ep = 1
	}
	d.queue.Reset()
}

// push offers n at dist; it reports whether the label improved (used by the
// centrality ordering to maintain shortest-path-tree parents).
func (d *dijkstraState) push(n graph.NodeID, dist graph.Dist) bool {
	if d.done[n] == d.ep {
		return false
	}
	if d.seen[n] == d.ep && d.dist[n] <= dist {
		return false
	}
	d.seen[n] = d.ep
	d.dist[n] = dist
	d.queue.Push(n, uint64(dist))
	return true
}

func (d *dijkstraState) pop() (graph.NodeID, graph.Dist, bool) {
	for {
		n, dist, ok := d.queue.Pop()
		if !ok {
			return 0, 0, false
		}
		if d.done[n] == d.ep {
			continue
		}
		d.done[n] = d.ep
		return n, graph.Dist(dist), true
	}
}

// centralitySamples is the number of shortest-path trees the landmark
// ordering samples; a handful suffices to separate through-traffic nodes
// from the periphery.
const centralitySamples = 12

// landmarkOrder sorts core — the nodes buildOrder's elimination left — by
// sampled shortest-path-tree centrality (approximate betweenness), highest
// first: a few Dijkstra trees over the whole graph from deterministic
// sources, scoring each node by the size of the subtree it roots — the
// number of shortest paths passing through it. Degree breaks ties, id
// breaks the rest. The core is where a score is needed: the hubs of a
// scale-free graph, which no elimination can order (their fill is a clique)
// and which degree alone orders worse; a road map has next to no core and
// skips the trees.
func landmarkOrder(g graph.Access, core []graph.NodeID, degree []int) error {
	if len(core) == 0 {
		return nil
	}
	n := g.NumNodes()
	score := make([]float64, n)
	st := newDijkstraState(n)
	parent := make([]graph.NodeID, n)
	popOrder := make([]graph.NodeID, 0, n)
	size := make([]float64, n)
	for s := 0; s < min(centralitySamples, n); s++ {
		// Deterministic, well-spread sources (Fibonacci hashing).
		src := graph.NodeID((uint64(s)*11400714819323198485 + 7) % uint64(n))
		st.begin()
		st.push(src, 0)
		parent[src] = -1
		popOrder = popOrder[:0]
		for {
			v, dist, ok := st.pop()
			if !ok {
				break
			}
			popOrder = append(popOrder, v)
			var err error
			if st.adj, err = g.Adjacency(v, st.adj); err != nil {
				return err
			}
			for _, e := range st.adj {
				if st.push(e.To, dist+e.W) {
					parent[e.To] = v
				}
			}
		}
		for _, v := range popOrder {
			size[v] = 1
		}
		// Children settle after parents, so a reverse pass accumulates
		// subtree sizes; the source itself is skipped (its "subtree" is
		// the whole component and would just promote the random sources).
		for i := len(popOrder) - 1; i >= 1; i-- {
			v := popOrder[i]
			size[parent[v]] += size[v]
			score[v] += size[v]
		}
	}
	slices.SortFunc(core, func(a, b graph.NodeID) int {
		return cmp.Or(cmp.Compare(score[b], score[a]), cmp.Compare(degree[b], degree[a]), cmp.Compare(a, b))
	})
	return nil
}

// prunedSweep runs one pruned Dijkstra from landmark h, appending (h, dist)
// to the labels of every node the loaded probe cannot already cover.
func prunedSweep(g graph.Access, h graph.NodeID, lp *landmarkProbe, into [][]Entry, st *dijkstraState, bst *BuildStats) error {
	st.begin()
	st.push(h, 0)
	for {
		v, dist, ok := st.pop()
		if !ok {
			return nil
		}
		bst.Visits++
		if lp.covers(into[v], dist) {
			bst.Pruned++
			continue // already covered by higher-ranked hubs
		}
		into[v] = append(into[v], Entry{Hub: h, Dist: dist})
		var err error
		if st.adj, err = g.Adjacency(v, st.adj); err != nil {
			return err
		}
		for _, e := range st.adj {
			st.push(e.To, dist+e.W)
		}
	}
}

// finalize converts per-node entry slices, in any order, into a
// hub-id-sorted CSR in O(entries) and without a comparison: a counting
// transpose to hub-major order and back. Reading the nodes in id order files
// every entry under its hub, and reading the hubs in id order then hands each
// node its entries by hub id. A node holds at most one entry per hub, so no
// ties arise. The sorted entries are packed straight into the bytes of
// newLabelMem at the side's widths (labelSet): the unit is the lowest bit set
// in any distance of the side, the distance bytes those of the widest count
// of it. finalize reports whether those bytes are a mapping.
func finalize(n int, entries [][]Entry) (labelSet, bool) {
	offsets := make([]int32, n+1) // node-major
	byHub := make([]int32, n+1)   // hub-major
	var all graph.Dist            // every distance's bits
	for v, label := range entries {
		offsets[v+1] = offsets[v] + int32(len(label))
		for _, e := range label {
			byHub[e.Hub+1]++
			all |= e.Dist
		}
	}
	for h := range n {
		byHub[h+1] += byHub[h]
	}
	total := offsets[n]

	s := labelSet{offsets: offsets, hubW: max(1, byteLen(uint64(max(n-1, 0))))}
	if all != 0 {
		s.shift = uint(bits.TrailingZeros64(uint64(all)))
	}
	s.width = s.hubW + byteLen(uint64(all>>s.shift))

	// Node-major → hub-major: each hub's entries, by node id.
	owner := make([]graph.NodeID, total)
	hubDist := make([]graph.Dist, total)
	next := slices.Clone(byHub[:n])
	for v, label := range entries {
		for _, e := range label {
			i := next[e.Hub]
			next[e.Hub]++
			owner[i], hubDist[i] = graph.NodeID(v), e.Dist
		}
	}

	// Hub-major → node-major: each node's entries, by hub id.
	var mapped bool
	if total > 0 {
		s.entries, mapped = newLabelMem(int(total)*s.width + labelSlack)
	}
	var field [16]byte
	next = slices.Clone(offsets[:n])
	for h := range n {
		for i := byHub[h]; i < byHub[h+1]; i++ {
			v := owner[i]
			e := s.entries[int(next[v])*s.width:]
			next[v]++
			count := uint64(hubDist[i] >> s.shift)
			if s.width == 8 { // one store, no byte past the entry
				binary.LittleEndian.PutUint64(e, uint64(h)|count<<(8*s.hubW))
				continue
			}
			// Entries land out of order: the bytes past this one may be
			// written already, so only its own are copied.
			binary.LittleEndian.PutUint64(field[:], uint64(h))
			binary.LittleEndian.PutUint64(field[s.hubW:], count)
			copy(e[:s.width], field[:])
		}
	}
	return s, mapped
}

// byteLen is the number of bytes x takes, 0 for 0.
func byteLen(x uint64) int { return (bits.Len64(x) + 7) / 8 }

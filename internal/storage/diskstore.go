package storage

import (
	"errors"
	"fmt"
	"sync"

	"graphrnn/internal/graph"
)

// DiskStore serves adjacency lists from a paged file through an LRU buffer
// manager, implementing graph.Access. It is the storage architecture of
// Section 3.1: adjacency lists of nearby nodes share pages, and an index
// maps each node id to its list. The index (one RecRef per node) is kept
// memory-resident — the analogue of pinning the directory levels of the
// paper's node-id index — so the counted I/O is adjacency-page I/O, which is
// what the paper's experiments report.
//
// A built DiskStore is read-only and safe for concurrent use: Adjacency
// decodes each fragment of a list inside one critical section of its pool
// tenant — the same lockPage / unlockPage pair Tenant.ReadPage is built on,
// so one fragment is one counted page access — and the pool reports the
// tenant's counters. A query of a Clustered store reads through a Session:
// it decodes each list once and replays the page accesses of repeated reads.
//
// Which lists share a page is the node order's: BFSOrder (the default)
// only approximates the connectivity clustering the paper adopts, and
// ClusteredOrder packs connected balls.
type DiskStore struct {
	bm       *Tenant
	index    []RecRef
	numNodes int
	numPages int
	logQ     int
	// Clustered records, before the store serves a query, that
	// ClusteredOrder packed it. Only then does a query read it through a
	// Session (core.NewSearcher): over BFS strips its repeated reads
	// straddle pages, and the session cost 3 % more than plain reads.
	Clustered bool
	// sessions pools the per-query readers Session hands out.
	sessions sync.Pool
}

// BuildDiskStore packs g into file following the given node order and
// returns a store reading through a private buffer of bufferPages pages.
// A nil order defaults to BFSOrder(g), the connectivity-clustering layout
// of Chan & Zhang used by the paper. The file must be empty. Use
// BuildDiskStoreBuffer to read adjacency pages through a shared pool.
func BuildDiskStore(g *graph.Graph, file PagedFile, bufferPages int, order []graph.NodeID) (*DiskStore, error) {
	return BuildDiskStoreBuffer(g, file, NewBufferPool(bufferPages).Attach("", file, 0), order)
}

// BuildDiskStoreBuffer is BuildDiskStore reading adjacency pages through
// bm, which must wrap file — typically a tenant of the process-wide
// buffer pool.
func BuildDiskStoreBuffer(g *graph.Graph, file PagedFile, bm *Tenant, order []graph.NodeID) (*DiskStore, error) {
	if file.NumPages() != 0 {
		return nil, fmt.Errorf("storage: BuildDiskStore needs an empty file, got %d pages", file.NumPages())
	}
	if g.Directed() {
		return nil, fmt.Errorf("storage: BuildDiskStore packs one adjacency file; a graph with one-way arcs needs two")
	}
	if order == nil {
		order = BFSOrder(g)
	}
	if len(order) != g.NumNodes() {
		return nil, fmt.Errorf("storage: order has %d nodes, graph has %d", len(order), g.NumNodes())
	}
	lw, err := newListWriter(file)
	if err != nil {
		return nil, err
	}
	index := make([]RecRef, g.NumNodes())
	for i := range index {
		index[i] = InvalidRecRef
	}
	var adj []graph.Edge
	for _, n := range order {
		if adj, err = g.Adjacency(n, adj[:0]); err != nil {
			return nil, err
		}
		if index[n], err = lw.add(n, adj); err != nil {
			return nil, err
		}
	}
	if err := lw.w.Flush(); err != nil {
		return nil, err
	}
	return &DiskStore{bm: bm, index: index, numNodes: g.NumNodes(), numPages: file.NumPages(), logQ: g.LogQuantum()}, nil
}

// NumNodes implements graph.Access.
func (s *DiskStore) NumNodes() int { return s.numNodes }

// LogQuantum implements graph.Access.
func (s *DiskStore) LogQuantum() int { return s.logQ }

// In implements graph.Access: a store only ever packs a symmetric graph.
func (s *DiskStore) In() graph.Access { return s }

// errStoreClosed answers a read of a store whose tenant Close detached.
var errStoreClosed = errors.New("storage: disk store is closed")

// Adjacency implements graph.Access, following the fragment chain of node n
// and appending its edges to buf. Each fragment is one critical section of
// the pool (read): lockPage, the slot lookup and the decode into buf,
// unlockPage — no callback between them.
func (s *DiskStore) Adjacency(n graph.NodeID, buf []graph.Edge) ([]graph.Edge, error) {
	if err := s.checkNode(n); err != nil {
		return nil, err
	}
	buf, _, err := s.read(nil, n, buf)
	return buf, err
}

func (s *DiskStore) checkNode(n graph.NodeID) error {
	if n < 0 || int(n) >= s.numNodes {
		return fmt.Errorf("storage: node %d out of range [0,%d)", n, s.numNodes)
	}
	return nil
}

// read decodes node n's list into buf through the pool, one critical
// section a fragment; the first also replays what session q (if any) owes
// the pool, ahead of the new access. chained reports a list spanning
// several fragments.
func (s *DiskStore) read(q *Session, n graph.NodeID, buf []graph.Edge) (_ []graph.Edge, chained bool, err error) {
	bm := s.bm
	if bm == nil {
		return nil, false, errStoreClosed
	}
	buf = buf[:0]
	for ref := s.index[n]; ref.Page != InvalidPage; {
		var fr *frame
		var borrowed bool
		if q != nil && len(q.log) > 0 {
			fr, borrowed, err = q.lockPage(ref.Page)
		} else {
			fr, borrowed, err = bm.lockPage(ref.Page)
		}
		if err != nil {
			return nil, false, fmt.Errorf("storage: adjacency of node %d: %w", n, err)
		}
		var owner graph.NodeID
		var next RecRef
		rec, err := ReadRecordSlot(fr.data, int(ref.Slot))
		if err == nil {
			owner, next, buf, err = ReadFragment(rec, buf)
		}
		bm.unlockPage(fr, borrowed)
		if err != nil {
			return nil, false, fmt.Errorf("storage: adjacency of node %d: %w", n, err)
		}
		if owner != n {
			return nil, false, fmt.Errorf("storage: fragment at page %d slot %d belongs to node %d, want %d", ref.Page, ref.Slot, owner, n)
		}
		chained = chained || next.Page != InvalidPage
		ref = next
	}
	return buf, chained, nil
}

// Buffer exposes the buffer manager (for stats and cache control).
func (s *DiskStore) Buffer() *Tenant { return s.bm }

// Close detaches the store's buffer tenant from its pool, flushing dirty
// pages and returning any contributed capacity. The store must not be
// used afterwards; Close is idempotent.
func (s *DiskStore) Close() error {
	if s.bm == nil {
		return nil
	}
	bm := s.bm
	s.bm = nil
	return bm.Detach()
}

// NumPages returns the size of the adjacency file in pages, which a built
// store never changes.
func (s *DiskStore) NumPages() int { return s.numPages }

// BFSOrder returns the nodes of g in breadth-first order (seeding each
// connected component from its smallest node id). Packing adjacency lists
// in this order places topological neighbours in the same or adjacent
// pages, which only approximates the locality grouping of Chan & Zhang that
// the paper adopts for its storage scheme: a page holds a strip of a BFS
// level, so the nodes around one node spread over several pages (see
// ClusteredOrder). Every count of the paper's experiments is measured on
// it.
func BFSOrder(g *graph.Graph) []graph.NodeID {
	n := g.NumNodes()
	order := make([]graph.NodeID, 0, n)
	seen := make([]bool, n)
	queue := make([]graph.NodeID, 0, 64)
	var buf []graph.Edge
	for s := graph.NodeID(0); int(s) < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			order = append(order, u)
			buf, _ = g.Adjacency(u, buf)
			for _, e := range buf {
				if !seen[e.To] {
					seen[e.To] = true
					queue = append(queue, e.To)
				}
			}
		}
	}
	return order
}

// ClusteredOrder returns the nodes of g in an order that packs each page of
// pageSize bytes with a connected ball of nodes, closer to the
// connectivity clustering of Chan & Zhang than BFSOrder's strips: a range-NN
// probe around a node stays on few pages. A page is seeded at the next
// unplaced node in BFS order and filled breadth-first over unplaced nodes
// from there, the frontier ordered as each list holds its neighbours; when
// the frontier empties the fill continues from the next unplaced BFS node,
// and the page closes when the next list does not fit. Where a page ends is
// the writer's own rule (listWriter), run on the lists as they are placed,
// so the pages BuildDiskStore then writes are exactly the planned ones.
//
// A graph with any list longer than a quarter page gets nil, which
// BuildDiskStore reads as BFSOrder: a ball around such a hub crowds out its
// neighbourhood (on BRITE-10K, eager and lazy-EP queries at k = 2 read 28 %
// more pages over balls than over BFS). The build is O(V + E).
func ClusteredOrder(g *graph.Graph, pageSize int) []graph.NodeID {
	n := g.NumNodes()
	for u := graph.NodeID(0); int(u) < n; u++ {
		if fragHeaderSize+PairSize*g.Degree(u) > pageSize/4 {
			return nil
		}
	}
	bfs := BFSOrder(g)
	lw, err := newListWriter(&countingFile{pageSize: pageSize})
	if err != nil {
		return nil
	}
	order := make([]graph.NodeID, 0, n)
	placed := make([]bool, n)
	var ball []graph.NodeID
	var adj, nbrs []graph.Edge
	place := func(u graph.NodeID) bool {
		if adj, err = g.Adjacency(u, adj[:0]); err == nil {
			_, err = lw.add(u, adj)
		}
		placed[u] = true
		order = append(order, u)
		ball = append(ball, u)
		return err == nil
	}
	for next := 0; len(order) < n; {
		for placed[bfs[next]] {
			next++
		}
		// The seed opens a fresh page unless the current one holds it.
		ball = ball[:0]
		if !place(bfs[next]) {
			return nil
		}
	fill:
		for head := 0; head < len(ball); head++ {
			if nbrs, err = g.Adjacency(ball[head], nbrs[:0]); err != nil {
				return nil
			}
			for _, e := range nbrs {
				if placed[e.To] {
					continue
				}
				if !lw.fits(g.Degree(e.To)) {
					break fill
				}
				if !place(e.To) {
					return nil
				}
			}
		}
	}
	return order
}

// countingFile is the PagedFile ClusteredOrder's writer runs on: it keeps
// no bytes, only the page count.
type countingFile struct{ pageSize, pages int }

func (f *countingFile) PageSize() int              { return f.pageSize }
func (f *countingFile) NumPages() int              { return f.pages }
func (f *countingFile) Read(PageID, []byte) error  { return ErrPageOutOfRange }
func (f *countingFile) Write(PageID, []byte) error { return ErrPageOutOfRange }
func (f *countingFile) Append([]byte) (PageID, error) {
	f.pages++
	return PageID(f.pages - 1), nil
}

// listWriter packs adjacency lists into record pages: the one placement
// rule of BuildDiskStoreBuffer's writer, which ClusteredOrder also runs to
// know where its pages end.
type listWriter struct {
	w   *RecordWriter
	rec []byte
}

func newListWriter(file PagedFile) (*listWriter, error) {
	w, err := NewRecordWriter(file, fragHeaderSize+PairSize)
	if err != nil {
		return nil, err
	}
	return &listWriter{w: w}, nil
}

// fits reports whether a list of n edges goes whole into the page under
// construction.
func (lw *listWriter) fits(edges int) bool { return fragmentRoom(lw.w.Free()) >= edges }

// add packs node n's list and returns where its first fragment landed. A
// list the page under construction cannot hold either opens a fresh page
// or, when the page has room for a worthwhile fragment, starts a chain
// there that continues at slot 0 of the next page.
func (lw *listWriter) add(n graph.NodeID, adj []graph.Edge) (RecRef, error) {
	// minTailEdges avoids opening a fragment chain just because a page has
	// a sliver of free space left; a fragment is only started in the
	// current page if it fits at least this many edges (or the whole list).
	const minTailEdges = 8

	w := lw.w
	head := InvalidRecRef
	remaining := adj
	for first := true; first || len(remaining) > 0; first = false {
		capEdges := fragmentRoom(w.Free())
		if !w.Empty() && capEdges < len(remaining) && capEdges < minTailEdges {
			// Not worth splitting here; start on a fresh page.
			if err := w.Flush(); err != nil {
				return InvalidRecRef, err
			}
			capEdges = fragmentRoom(w.Free())
		}
		take, next := len(remaining), InvalidRecRef
		if capEdges < take {
			// The remainder continues at slot 0 of the next page.
			take, next = capEdges, RecRef{Page: w.Page() + 1}
		}
		lw.rec = appendFragment(lw.rec[:0], n, next, remaining[:take])
		ref, err := w.Add(lw.rec)
		if err != nil {
			return InvalidRecRef, err
		}
		if first {
			head = ref
		}
		if remaining = remaining[take:]; len(remaining) > 0 {
			// Force the continuation onto the announced next page.
			if err := w.Flush(); err != nil {
				return InvalidRecRef, err
			}
		}
	}
	return head, nil
}

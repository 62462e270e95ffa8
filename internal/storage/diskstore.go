package storage

import (
	"fmt"

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
// tenant's counters.
type DiskStore struct {
	bm       *Tenant
	index    []RecRef
	numNodes int
	logQ     int
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
	w, err := NewRecordWriter(file, fragHeaderSize+PairSize)
	if err != nil {
		return nil, err
	}
	index := make([]RecRef, g.NumNodes())
	for i := range index {
		index[i] = InvalidRecRef
	}
	var adj []graph.Edge
	var rec []byte

	// minTailEdges avoids opening a fragment chain just because a page has
	// a sliver of free space left; a fragment is only started in the
	// current page if it fits at least this many edges (or the whole list).
	const minTailEdges = 8

	for _, n := range order {
		adj, err = g.Adjacency(n, adj[:0])
		if err != nil {
			return nil, err
		}
		remaining := adj
		for first := true; first || len(remaining) > 0; first = false {
			capEdges := fragmentRoom(w.Free())
			if !w.Empty() && capEdges < len(remaining) && capEdges < minTailEdges {
				// Not worth splitting here; start on a fresh page.
				if err := w.Flush(); err != nil {
					return nil, err
				}
				capEdges = fragmentRoom(w.Free())
			}
			take, next := len(remaining), InvalidRecRef
			if capEdges < take {
				// The remainder continues at slot 0 of the next page.
				take, next = capEdges, RecRef{Page: w.Page() + 1}
			}
			rec = appendFragment(rec[:0], n, next, remaining[:take])
			ref, err := w.Add(rec)
			if err != nil {
				return nil, err
			}
			if first {
				index[n] = ref
			}
			if remaining = remaining[take:]; len(remaining) > 0 {
				// Force the continuation onto the announced next page.
				if err := w.Flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return &DiskStore{bm: bm, index: index, numNodes: g.NumNodes(), logQ: g.LogQuantum()}, nil
}

// NumNodes implements graph.Access.
func (s *DiskStore) NumNodes() int { return s.numNodes }

// LogQuantum implements graph.Access.
func (s *DiskStore) LogQuantum() int { return s.logQ }

// In implements graph.Access: a store only ever packs a symmetric graph.
func (s *DiskStore) In() graph.Access { return s }

// Adjacency implements graph.Access, following the fragment chain of node n
// and appending its edges to buf. Each fragment is one critical section of
// the pool: lockPage, the slot lookup and the decode into buf, unlockPage —
// no callback between them.
func (s *DiskStore) Adjacency(n graph.NodeID, buf []graph.Edge) ([]graph.Edge, error) {
	if n < 0 || int(n) >= s.numNodes {
		return nil, fmt.Errorf("storage: node %d out of range [0,%d)", n, s.numNodes)
	}
	buf = buf[:0]
	for ref := s.index[n]; ref.Page != InvalidPage; {
		fr, borrowed, err := s.bm.lockPage(ref.Page)
		if err != nil {
			return nil, fmt.Errorf("storage: adjacency of node %d: %w", n, err)
		}
		var owner graph.NodeID
		var next RecRef
		rec, err := ReadRecordSlot(fr.data, int(ref.Slot))
		if err == nil {
			owner, next, buf, err = ReadFragment(rec, buf)
		}
		s.bm.unlockPage(fr, borrowed)
		if err != nil {
			return nil, fmt.Errorf("storage: adjacency of node %d: %w", n, err)
		}
		if owner != n {
			return nil, fmt.Errorf("storage: fragment at page %d slot %d belongs to node %d, want %d", ref.Page, ref.Slot, owner, n)
		}
		ref = next
	}
	return buf, nil
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

// NumPages returns the size of the adjacency file in pages.
func (s *DiskStore) NumPages() int { return s.bm.File().NumPages() }

// BFSOrder returns the nodes of g in breadth-first order (seeding each
// connected component from its smallest node id). Packing adjacency lists
// in this order places topological neighbours in the same or adjacent
// pages, approximating the locality grouping of Chan & Zhang that the paper
// adopts for its storage scheme.
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

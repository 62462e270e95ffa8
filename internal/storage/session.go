package storage

import (
	"fmt"

	"graphrnn/internal/graph"
)

// Session is one query's reader of a DiskStore, implementing graph.Access.
// The paper's eager algorithm probes the network around every node its
// main walk pops (Section 3.2), so one query reads the same few adjacency
// lists many times over: each read is still a page access the cost model
// counts, but decoding the list again and taking the pool mutex for it
// again buys nothing, since a built store is read-only.
//
// The first read of a node goes through the pool as DiskStore.Adjacency
// does — one critical section that faults or hits the page and decodes
// the list — and the session keeps the decoded list. A later read of the
// node copies the kept list into the caller's buffer and only logs the
// page access it owes the pool: no mutex, no slot lookup, no decode. The
// log is replayed in order, in one critical section, before the
// session's next real pool access, whenever the log is full, and at every
// Flush and Close, each logged access applied exactly as it would have
// been: a hit moves its page to the front of the LRU, a miss faults the
// page in, evicting and counting as any fault does. A fault evicts only
// its own tenant's frames, so deferring the graph tenant's accesses past
// other tenants' reads changes no tenant's sequence. When the session is
// its store's only reader, every counter, eviction and LRU order matches a
// query that read every list through DiskStore.Adjacency. Sessions reading
// one store at once keep Reads plus Hits equal to their accesses, but not
// the interleaving: a deferred hit does not keep its page recent until the
// replay, so another session's fault may evict the page and the replay
// read it again, and Reads, Evictions and the LRU order may differ from
// plain reads. The query flushes its session at the end, and at every poll
// when an I/O budget reads the pool's counter (core.Searcher.checkExec); a
// concurrent Stats or Snapshot may see a running query's accesses up to one
// full log late.
//
// A session's memory is a constant, not a function of the graph: an
// open-addressed table of memoSlots 16-byte slots (64 KB) and an arena of
// memoMaxEdges edges (128 KB), made when the first list is kept, plus a
// log of logLen runs. When either is full the session forgets every kept
// list and starts over, so a long query keeps the lists around where its
// walks are now. Lists longer than the arena, and lists chained over
// several pages, are read through the pool every time. Sessions are pooled
// by their store and reused by later queries.
//
// A session serves one query at a time, on one goroutine.
type Session struct {
	ds *DiskStore
	// slots is the memo's hash table, memoSlots long once the first list
	// is kept, at most three quarters full.
	slots []memoSlot
	used  int
	// arena holds the kept lists back to back.
	arena []graph.Edge
	// log holds the page accesses owed to the pool, in order; a run of
	// accesses to one page is one entry.
	log []touch
}

// memoSlot is one kept list: node+1 (0 marks a free slot), the page
// holding the list and its edges in the arena.
type memoSlot struct {
	key    int32
	page   PageID
	off, n int32
}

// touch is a run of count accesses to one page.
type touch struct {
	page  PageID
	count int32
}

const (
	memoSlotBits = 12
	memoSlots    = 1 << memoSlotBits
	memoMaxEdges = 1 << 13
	logLen       = 128
)

// Session returns a reader for one query, drawn from the store's pool.
// Close it when the query ends.
func (s *DiskStore) Session() *Session {
	if q, ok := s.sessions.Get().(*Session); ok {
		return q
	}
	return &Session{ds: s, log: make([]touch, 0, logLen)}
}

// NumNodes implements graph.Access.
func (q *Session) NumNodes() int { return q.ds.numNodes }

// LogQuantum implements graph.Access.
func (q *Session) LogQuantum() int { return q.ds.logQ }

// In implements graph.Access: a store only ever packs a symmetric graph.
func (q *Session) In() graph.Access { return q }

// Adjacency implements graph.Access: node n's list in buf, which never
// aliases the session's own storage.
func (q *Session) Adjacency(n graph.NodeID, buf []graph.Edge) ([]graph.Edge, error) {
	if err := q.ds.checkNode(n); err != nil {
		return nil, err
	}
	if sl := q.lookup(n); sl != nil {
		if last := len(q.log) - 1; last >= 0 && q.log[last].page == sl.page {
			q.log[last].count++
		} else if err := q.touch(sl.page); err != nil {
			return nil, err
		}
		return append(buf[:0], q.arena[sl.off:sl.off+sl.n]...), nil
	}
	buf, chained, err := q.ds.read(q, n, buf)
	if err == nil && !chained {
		q.remember(n, buf)
	}
	return buf, err
}

// Flush replays the page accesses the session owes the pool, so that the
// pool's counters are what they would be had every read gone through it.
// An error is the failure of a replayed fault, which the query's own read
// would have met.
func (q *Session) Flush() error {
	if len(q.log) == 0 {
		return nil
	}
	p := q.ds.bm.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return q.replayLocked()
}

// Close flushes the session and returns it to its store's pool; the
// session must not be used afterwards.
func (q *Session) Close() error {
	err := q.Flush()
	q.forget()
	q.ds.sessions.Put(q)
	return err
}

// lockPage is Tenant.lockPage with the session's debt paid first: the
// logged accesses replay in the same critical section, ahead of the new
// one, which a failed replay never reaches.
func (q *Session) lockPage(id PageID) (fr *frame, borrowed bool, err error) {
	t := q.ds.bm
	t.pool.mu.Lock()
	if err = q.replayLocked(); err == nil {
		fr, borrowed, err = t.loadLocked(id)
	}
	if err != nil {
		t.pool.mu.Unlock()
	}
	return fr, borrowed, err
}

// replayLocked applies the logged accesses in order, one run at a time,
// each the access it stands for, and empties the log, also when one of
// them fails. It is called with the pool mutex held, and like loadLocked
// releases it for the physical read of a miss.
func (q *Session) replayLocked() (err error) {
	t := q.ds.bm
runs:
	for _, tc := range q.log {
		for c := tc.count; c > 0; c-- {
			fr, borrowed, lerr := t.loadLocked(tc.page)
			if lerr != nil {
				err = fmt.Errorf("storage: adjacency page %d: %w", tc.page, lerr)
				break runs
			}
			if borrowed {
				t.pool.recycleLocked(fr) // uncached: every access is a read
				continue
			}
			t.stats.Hits += int64(c - 1) // the page is resident from here on
			break
		}
	}
	q.log = q.log[:0]
	return err
}

// touch logs one access to page p as a new run (Adjacency extends the
// last one itself), replaying the log first when it is full.
func (q *Session) touch(p PageID) error {
	if len(q.log) == cap(q.log) {
		if err := q.Flush(); err != nil {
			return err
		}
	}
	q.log = append(q.log, touch{page: p, count: 1})
	return nil
}

// hash is Fibonacci hashing of n onto the table's bits.
func (q *Session) hash(n graph.NodeID) uint32 {
	return (uint32(n) * 0x9E3779B1) >> (32 - memoSlotBits)
}

// lookup returns n's kept list, or nil.
func (q *Session) lookup(n graph.NodeID) *memoSlot {
	if q.used == 0 {
		return nil
	}
	mask := uint32(len(q.slots) - 1)
	for i := q.hash(n); ; i = (i + 1) & mask {
		sl := &q.slots[i]
		if sl.key == int32(n)+1 {
			return sl
		}
		if sl.key == 0 {
			return nil
		}
	}
}

// remember keeps node n's single-page list adj. A full table or arena
// forgets every kept list first, so a long query keeps the lists around
// where its walks are now.
func (q *Session) remember(n graph.NodeID, adj []graph.Edge) {
	if len(adj) > memoMaxEdges {
		return
	}
	if q.slots == nil {
		q.slots = make([]memoSlot, memoSlots)
		q.arena = make([]graph.Edge, 0, memoMaxEdges)
	}
	if 4*(q.used+1) > 3*memoSlots || len(q.arena)+len(adj) > memoMaxEdges {
		q.forget()
	}
	q.insert(memoSlot{key: int32(n) + 1, page: q.ds.index[n].Page, off: int32(len(q.arena)), n: int32(len(adj))})
	q.arena = append(q.arena, adj...)
}

// forget drops every kept list.
func (q *Session) forget() {
	if q.used > 0 {
		clear(q.slots)
		q.used = 0
	}
	q.arena = q.arena[:0]
}

func (q *Session) insert(sl memoSlot) {
	mask := uint32(len(q.slots) - 1)
	i := q.hash(graph.NodeID(sl.key - 1))
	for q.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	q.slots[i] = sl
	q.used++
}

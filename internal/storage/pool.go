package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// BufferPool is one LRU page cache shared by any number of paged files
// ("tenants"): graph adjacency pages, materialized K-NN lists, hub-label
// pages and edge-point files all draw frames from the same pool, replacing
// the three independent per-substrate buffers the repository grew up with.
//
// Each cached tenant carries a quota — the most frames it may hold — and
// its own LRU list, and a fault evicts only the faulting tenant's frames,
// so one substrate never evicts another's pages. The pool's capacity is
// the sum of its tenants' quotas. Per-tenant and pool-wide hit/miss/
// eviction counters come from one set of increment sites, so there is a
// single source of truth for I/O accounting.
//
// Every access — ReadPage (and Get on top of it), ReadRecord, Update and
// DiskStore.Adjacency — is one critical section between the same two
// steps: lockPage takes the pool mutex and gets the page from loadLocked,
// the caller uses the bytes, and unlockPage recycles a borrowed frame and
// releases the mutex. So a frame needs no reference count: whoever holds
// the mutex is the only user of every loaded frame. A cached page costs one
// critical section that also touches the tenant's LRU and counts the hit:
// two atomic operations and an index into the tenant's dense page table.
// An evicted frame and its page buffer go to a free list the next fault
// reuses, so the steady-state read path — hit or miss — allocates nothing.
//
// Concurrency: one mutex guards every field below but quota, ready and
// reads, and through the tenants their page tables, LRU lists and counters
// (a snapshot or reset takes it, and never waits behind an in-flight page
// fault: loadLocked releases the mutex for the duration of the physical
// read), and concurrent requests for the same missing page coalesce into
// one read: the latecomers wait on the pool's ready latch for the frame's
// loaded flag and share the outcome, an error included. The race detector
// checks the lock rule through TestPoolConcurrentTenants, which drives
// every exported method from its own goroutine; a new method joins it
// there.
type BufferPool struct {
	mu sync.Mutex
	// quota is the frame quota of a tenant attached with quota 0.
	quota int
	// capacity is the sum of the cached tenants' quotas.
	capacity int
	nframes  int
	// free holds evicted and dropped frames, page buffers attached, for
	// reuse by the next fault or uncached read.
	free []*frame
	// ready is broadcast (on mu) whenever a pending frame becomes loaded.
	ready   sync.Cond
	tenants []*Tenant
	// reads is the pool-wide physical-read counter — the only aggregate
	// maintained inline (it backs per-query I/O budgets and only moves on
	// misses, which pay a physical read anyway). Everything else is
	// summed from the tenants on demand, keeping the hit path free of
	// atomics beyond the mutex.
	reads atomic.Int64
}

// Tenant is one paged file's view of a BufferPool. Storage clients are
// agnostic about whether their buffer is private — the only tenant of its
// own pool, NewBufferPool(pages).Attach("", file, 0) — or shared. The
// first four fields are fixed at Attach; the pool mutex guards the rest.
type Tenant struct {
	pool  *BufferPool
	name  string
	file  PagedFile
	quota int // >0 max frames; otherwise never cached

	// table is the dense page table: table[id] is the frame holding page id
	// or nil, and held counts the non-nil entries. It grows with the pages
	// admitted and never past the file.
	table []*frame
	held  int
	// lru orders the tenant's frames by recency; a fault at quota evicts
	// from its back.
	lru   lruList
	stats Stats
}

// NoCache, passed as a tenant quota, keeps the tenant's pages out of the
// pool entirely: every access is a counted physical transfer (the paper's
// zero-buffer measurement mode), while other tenants keep caching.
const NoCache = -1

// frame is one buffered page, guarded by the pool mutex. loaded is set once
// the physical read has completed — data then holds the page contents, or
// err the read failure; until then the frame is pending: only its faulter
// touches data, and nothing evicts or drops it.
type frame struct {
	owner  *Tenant
	id     PageID
	data   []byte
	dirty  bool
	loaded bool
	err    error
	// prev and next link the frame into its owner's LRU list.
	prev, next *frame
}

// lruList is a recency list threaded through the frames themselves (front
// = most recently used), so that moving a page in or out of the cache
// allocates nothing.
type lruList struct{ front, back *frame }

func (l *lruList) pushFront(fr *frame) {
	fr.prev, fr.next = nil, l.front
	if l.front != nil {
		l.front.prev = fr
	} else {
		l.back = fr
	}
	l.front = fr
}

func (l *lruList) remove(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		l.front = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		l.back = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (l *lruList) moveToFront(fr *frame) {
	if l.front != fr {
		l.remove(fr)
		l.pushFront(fr)
	}
}

// NewBufferPool creates an empty pool whose tenants attached with quota 0
// hold up to pages frames each; NewBufferPool(pages).Attach("", file, 0)
// is a private buffer of pages frames. With pages ≤ 0 such a tenant caches
// nothing: every logical access performs (and counts) a physical transfer.
func NewBufferPool(pages int) *BufferPool {
	p := &BufferPool{quota: max(pages, 0)}
	p.ready.L = &p.mu
	return p
}

// Attach registers file as a tenant of the pool and grows the pool's
// capacity by its quota. quota > 0 bounds the frames the tenant may hold,
// 0 takes the pool's default (NewBufferPool's pages), and NoCache keeps
// its pages out of the pool entirely. Detach gives the quota back. Tenant
// names are labels for stats reporting; they need not be unique.
func (p *BufferPool) Attach(name string, file PagedFile, quota int) *Tenant {
	if quota == 0 {
		quota = p.quota
	}
	t := &Tenant{pool: p, name: name, file: file, quota: quota}
	p.mu.Lock()
	p.tenants = append(p.tenants, t)
	p.capacity += t.frames()
	p.mu.Unlock()
	return t
}

// frames is the tenant's share of the pool's capacity: its quota, or 0
// when it is never cached.
func (t *Tenant) frames() int { return max(t.quota, 0) }

// Stats returns the pool-wide I/O counters: the sum of every tenant's
// traffic. Safe to call while queries fault pages in.
func (p *BufferPool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum Stats
	for _, t := range p.tenants {
		sum = sum.Add(t.statsRow().Stats)
	}
	return sum
}

// Reads returns the pool-wide physical read counter — the hook per-query
// I/O budgets poll. Unlike Stats it is a single atomic load, cheap enough
// for per-expansion-step checks.
func (p *BufferPool) Reads() int64 { return p.reads.Load() }

// ResetStats zeroes the pool-wide and every tenant's counters.
func (p *BufferPool) ResetStats() {
	p.reads.Store(0)
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, t := range p.tenants {
		t.resetStatsLocked()
	}
}

// TenantStats describes one tenant's view of the pool.
type TenantStats struct {
	// Name is the label the tenant was attached under.
	Name string
	// Stats holds the tenant's own I/O counters.
	Stats Stats
	// Frames is the number of pool frames the tenant currently holds.
	Frames int
	// Quota is the tenant's frame quota (≤ 0 = uncached).
	Quota int
}

// TenantStats returns a snapshot of every tenant, in attach order.
func (p *BufferPool) TenantStats() []TenantStats {
	_, rows := p.Snapshot()
	return rows
}

// Snapshot returns the pool's capacity and every tenant's row, in attach
// order, from one critical section: the rows sum to what Stats returned at
// the same instant.
func (p *BufferPool) Snapshot() (capacity int, tenants []TenantStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tenants = make([]TenantStats, len(p.tenants))
	for i, t := range p.tenants {
		tenants[i] = t.statsRow()
	}
	return p.capacity, tenants
}

// statsRow captures one tenant's TenantStats entry. Callers reach t by
// iterating t.pool.tenants under the pool mutex, which is t.pool.mu.
func (t *Tenant) statsRow() TenantStats {
	return TenantStats{Name: t.name, Stats: t.stats, Frames: t.held, Quota: t.quota}
}

// --- Tenant surface --------------------------------------------------------

// File returns the underlying paged file.
func (t *Tenant) File() PagedFile { return t.file }

// Name returns the label the tenant was attached under.
func (t *Tenant) Name() string { return t.name }

// Stats returns a copy of the tenant's accumulated I/O counters. It is
// safe to call while other goroutines access the pool.
func (t *Tenant) Stats() Stats {
	t.pool.mu.Lock()
	defer t.pool.mu.Unlock()
	return t.stats
}

// ResetStats zeroes the tenant's I/O counters (the pool-wide aggregate is
// left running; reset it through BufferPool.ResetStats).
func (t *Tenant) ResetStats() {
	t.pool.mu.Lock()
	defer t.pool.mu.Unlock()
	t.resetStatsLocked()
}

// resetStatsLocked zeroes the tenant's counters; like statsRow it is reached
// by iterating t.pool.tenants under the pool mutex.
func (t *Tenant) resetStatsLocked() { t.stats = Stats{} }

// uncached reports whether page id bypasses the pool: the tenant is never
// cached, or the file has no such page — its read comes back with the
// file's own error, and the dense table never grows past the file.
func (t *Tenant) uncached(id PageID) bool {
	return t.quota <= 0 || uint(id) >= uint(t.file.NumPages())
}

// countRead counts one physical read against the tenant and the pool. It
// is called with the pool mutex held.
func (t *Tenant) countRead() { t.stats.Reads++; t.pool.reads.Add(1) }

// frameLocked returns the frame holding page id, or nil. It is called with
// the pool mutex held.
func (t *Tenant) frameLocked(id PageID) *frame {
	if uint(id) < uint(len(t.table)) {
		return t.table[id]
	}
	return nil
}

// loadLocked returns the frame holding page id, faulting the page in on a
// miss; it is the pool's only way to get a page, and lockPage its only
// caller. It is called and returns with the pool mutex held, and the frame
// is the caller's to use until it releases the mutex. A miss is read once,
// with the mutex released: a pending frame is admitted first, so concurrent
// requests for the page wait on ready and share the outcome. When no frame
// may cache the page (see uncached) the read goes into a frame borrowed
// from the free list, which is in no table or list, and the caller recycles
// it when done.
func (t *Tenant) loadLocked(id PageID) (fr *frame, borrowed bool, err error) {
	p := t.pool
	for fr = t.frameLocked(id); fr != nil; fr = t.frameLocked(id) {
		if fr.loaded {
			t.lru.moveToFront(fr)
			t.stats.Hits++
			return fr, false, nil
		}
		p.ready.Wait() // an in-flight read of this page; share its outcome
		// A failed frame is unlinked and never reused, so an error on a
		// frame still labelled with this page is the outcome of a read of
		// it. Anything else — still pending, loaded, or evicted (and perhaps
		// reused) before this waiter ran — is for the table to say.
		if fr.err != nil && fr.owner == t && fr.id == id {
			return nil, false, fr.err
		}
	}
	t.countRead()
	borrowed = t.uncached(id)
	if !borrowed {
		if err = t.evictLocked(); err != nil {
			return nil, false, err
		}
	}
	fr = p.newFrameLocked(t, id)
	if !borrowed {
		p.admitLocked(fr)
	}
	p.mu.Unlock()
	err = t.file.Read(id, fr.data)
	p.mu.Lock()
	fr.err, fr.loaded = err, true
	if !borrowed {
		p.ready.Broadcast()
	}
	if err == nil {
		return fr, borrowed, nil
	}
	if borrowed {
		p.recycleLocked(fr)
	} else {
		// Unlink the failed frame so the next request retries the read.
		// Waiters still hold it, so it is left to the collector.
		p.removeLocked(fr)
	}
	return nil, false, err
}

// lockPage takes the pool mutex and returns the frame holding page id from
// loadLocked — the first of the two steps every access is built on. On
// success the mutex stays held and the frame is the caller's until it hands
// both back to unlockPage; on error the mutex is already released.
func (t *Tenant) lockPage(id PageID) (fr *frame, borrowed bool, err error) {
	t.pool.mu.Lock()
	if fr, borrowed, err = t.loadLocked(id); err != nil {
		t.pool.mu.Unlock()
	}
	return fr, borrowed, err
}

// unlockPage is the second step: it recycles a borrowed frame and releases
// the pool mutex. The frame's bytes are dead from here on.
func (t *Tenant) unlockPage(fr *frame, borrowed bool) {
	if borrowed {
		t.pool.recycleLocked(fr)
	}
	t.pool.mu.Unlock()
}

// ReadPage runs read on page id, one counted access between lockPage and
// unlockPage: the page comes from loadLocked, hit or miss, and read runs
// under the pool mutex — for a cached page in the critical section that
// touches the LRU and counts the hit — so it must not call back into the
// pool and must do no more than copy out what it needs. The bytes are dead
// once read returns. read's error is returned as is.
func (t *Tenant) ReadPage(id PageID, read func(page []byte) error) error {
	fr, borrowed, err := t.lockPage(id)
	if err != nil {
		return err
	}
	defer t.unlockPage(fr, borrowed)
	return read(fr.data)
}

// Get returns a private copy of page id. It is the copying convenience for
// tests and tools; readers use ReadPage or ReadRecord, which read in place.
func (t *Tenant) Get(id PageID) ([]byte, error) {
	var out []byte
	err := t.ReadPage(id, func(page []byte) error {
		out = append([]byte(nil), page...)
		return nil
	})
	return out, err
}

// Update fetches page id, applies fn to its contents in place, and marks
// the page dirty. A page no frame caches is written through immediately.
// fn runs under the pool mutex and must not call back into the pool. Update
// must not run concurrently with readers of the same page — the maintenance
// paths that use it hold their substrate exclusively — and like any access
// it releases the mutex for the physical read of a miss.
func (t *Tenant) Update(id PageID, fn func(page []byte) error) error {
	fr, borrowed, err := t.lockPage(id)
	if err != nil {
		return err
	}
	defer t.unlockPage(fr, borrowed)
	if err := fn(fr.data); err != nil {
		return err
	}
	if borrowed {
		t.stats.Writes++
		return t.file.Write(id, fr.data)
	}
	fr.dirty = true
	return nil
}

// Flush writes the tenant's dirty pages back to its file and retains the
// cache.
func (t *Tenant) Flush() error {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return t.flushLocked()
}

// flushLocked writes the tenant's dirty pages back, in ascending page
// order. It is called with the pool mutex held.
func (t *Tenant) flushLocked() error {
	for _, fr := range t.table {
		if fr != nil && fr.dirty {
			t.stats.Writes++
			if err := t.file.Write(fr.id, fr.data); err != nil {
				return fmt.Errorf("storage: flush page %d: %w", fr.id, err)
			}
			fr.dirty = false
		}
	}
	return nil
}

// Invalidate drops the tenant's cached frames (writing back dirty ones),
// so that a fresh workload starts from a cold buffer. Frames with reads
// still in flight are retained. Other tenants' frames are untouched.
func (t *Tenant) Invalidate() error {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := t.flushLocked(); err != nil {
		return err
	}
	t.dropFramesLocked()
	return nil
}

// Invalidate empties the pool: Tenant.Invalidate for every tenant, so a
// workload over several substrates starts from one cold cache.
func (p *BufferPool) Invalidate() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var errs []error
	for _, t := range p.tenants {
		if err := t.flushLocked(); err != nil {
			errs = append(errs, err)
			continue
		}
		t.dropFramesLocked()
	}
	return errors.Join(errs...)
}

// Detach flushes and drops the tenant's frames, removes it from the pool
// and gives its quota back. The tenant must not be used afterwards.
func (t *Tenant) Detach() error {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := t.flushLocked(); err != nil {
		return err
	}
	for i, other := range p.tenants {
		if other == t {
			p.tenants = append(p.tenants[:i], p.tenants[i+1:]...)
			p.capacity -= t.frames()
			break
		}
	}
	t.dropFramesLocked()
	return nil
}

// dropFramesLocked removes and recycles the tenant's loaded frames; a
// pending one stays with its faulter. It is called with the pool mutex
// held.
func (t *Tenant) dropFramesLocked() {
	for _, fr := range t.table {
		if fr != nil && fr.loaded {
			t.pool.removeLocked(fr)
			t.pool.recycleLocked(fr)
		}
	}
}

// --- pool internals (all called with p.mu held; the pool's one mutex
// also guards every tenant reached through a frame's owner pointer) --------

// newFrameLocked returns an unlinked, pending frame for page id of t with
// a page buffer of the tenant's page size: a recycled one when the free
// list has any. The buffer's contents are whatever the last page left.
func (p *BufferPool) newFrameLocked(t *Tenant, id PageID) *frame {
	var fr *frame
	if n := len(p.free); n > 0 {
		fr, p.free[n-1] = p.free[n-1], nil
		p.free = p.free[:n-1]
	} else {
		fr = &frame{}
	}
	size := t.file.PageSize()
	if cap(fr.data) < size {
		fr.data = make([]byte, size)
	}
	fr.owner, fr.id, fr.data = t, id, fr.data[:size]
	fr.dirty, fr.loaded, fr.err = false, false, nil
	return fr
}

// freeSlack is how many frames beyond the pool's capacity the free list
// may keep: the borrowed frames of uncached reads and the over-commit of
// concurrent faults.
const freeSlack = 4

// recycleLocked puts an unlinked frame on the free list, unless
// the pool already owns as many frames as it can use (after a Detach
// shrank it).
func (p *BufferPool) recycleLocked(fr *frame) {
	if p.nframes+len(p.free) < p.capacity+freeSlack {
		p.free = append(p.free, fr)
	}
}

// admitLocked installs a frame in its owner's page table and recency order.
func (p *BufferPool) admitLocked(fr *frame) {
	t := fr.owner
	t.lru.pushFront(fr)
	if n := int(fr.id) + 1 - len(t.table); n > 0 {
		t.table = append(t.table, make([]*frame, n)...)
	}
	t.table[fr.id] = fr
	t.held++
	p.nframes++
}

// removeLocked drops a frame from its owner's page table and recency order.
func (p *BufferPool) removeLocked(fr *frame) {
	fr.owner.lru.remove(fr)
	fr.owner.table[fr.id] = nil
	fr.owner.held--
	p.nframes--
}

// evictLocked makes room for one new frame of the tenant: while it sits at
// its quota, its least recently used frames go, written back first when
// dirty. Frames whose physical read is still in flight are skipped; if
// every candidate is one of those the tenant temporarily exceeds its quota
// (by at most the number of concurrent faulters). It is called with the
// pool mutex held.
func (t *Tenant) evictLocked() error {
	for victim := t.lru.back; victim != nil && t.held >= t.quota; {
		prev := victim.prev
		if victim.loaded {
			if victim.dirty {
				t.stats.Writes++
				if err := t.file.Write(victim.id, victim.data); err != nil {
					return fmt.Errorf("storage: evict page %d: %w", victim.id, err)
				}
			}
			t.stats.Evictions++
			t.pool.removeLocked(victim)
			t.pool.recycleLocked(victim)
		}
		victim = prev
	}
	return nil
}

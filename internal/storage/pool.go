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
// Frames live on a single global LRU list. Each tenant may carry a quota —
// an upper bound on the frames it can hold — so one substrate cannot evict
// the rest of the pool behind the caller's back; tenants without a quota
// share the pool's capacity freely. Per-tenant and pool-wide hit/miss/
// eviction counters come from one set of increment sites, so there is a
// single source of truth for I/O accounting.
//
// Every access — ReadRecord, Update, Get — takes the pool mutex, gets its
// page from loadLocked and uses the bytes before releasing the mutex, so a
// frame needs no reference count: whoever holds the mutex is the only user
// of every loaded frame. A cached page costs one critical section that also
// touches the LRU and counts the hit: two atomic operations and an index
// into the tenant's dense page table. An evicted frame and its page buffer
// go to a free list the next fault reuses, so the steady-state read path —
// hit or miss — allocates nothing.
//
// Concurrency: one mutex guards every field below but ready and reads, and
// through the tenants their page tables, LRU lists and counters (a
// snapshot or reset takes it, and never waits behind an in-flight page
// fault: loadLocked releases the mutex for the duration of the physical
// read), and concurrent requests for the same missing page coalesce into
// one read: the latecomers wait on the pool's ready latch for the frame's
// loaded flag and share the outcome, an error included. The race detector
// checks the lock rule through TestPoolConcurrentTenants, which drives
// every exported method from its own goroutine; a new method joins it
// there.
type BufferPool struct {
	mu       sync.Mutex
	capacity int
	lru      lruList
	nframes  int
	// free holds evicted and dropped frames, page buffers attached, for
	// reuse by the next fault or uncached read.
	free []*frame
	// ready is broadcast (on mu) whenever a pending frame becomes loaded.
	ready   sync.Cond
	tenants []*Tenant
	// trackGlobal records whether the pool-wide LRU order can ever decide
	// an eviction: false when every tenant is quota-bounded and the
	// capacity covers the quota sum (the default DB composition), in
	// which case hits skip the global MoveToFront — the hit path then
	// costs what a private per-substrate buffer would.
	trackGlobal bool
	// reads is the pool-wide physical-read counter — the only aggregate
	// maintained inline (it backs per-query I/O budgets and only moves on
	// misses, which pay a physical read anyway). Everything else is
	// summed from the tenants on demand, keeping the hit path free of
	// atomics beyond the mutex.
	reads atomic.Int64
}

// refreshTrackLocked recomputes trackGlobal after a capacity or tenant
// change. It is called with p.mu held.
func (p *BufferPool) refreshTrackLocked() {
	sum := 0
	track := false
	for _, t := range p.tenants {
		if t.quota == 0 {
			track = true
		} else if t.quota > 0 {
			sum += t.quota
		}
	}
	p.trackGlobal = track || p.capacity < sum
}

// Tenant is one paged file's view of a BufferPool. Storage clients are
// agnostic about whether their buffer is private — the only tenant of its
// own pool, NewBufferPool(pages).Attach("", file, 0) — or shared. The
// first four fields are fixed at Attach; the pool mutex guards the rest.
type Tenant struct {
	pool  *BufferPool
	name  string
	file  PagedFile
	quota int // >0 max frames; 0 no per-tenant cap; <0 never cached
	grown int // capacity contributed via AttachGrowing, returned on Detach

	// table is the dense page table: table[id] is the frame holding page id
	// or nil, and held counts the non-nil entries. It grows with the pages
	// admitted and never past the file.
	table []*frame
	held  int
	// tlru orders the tenant's own frames by recency so quota eviction is
	// O(1) instead of scanning the pool-wide list past other tenants'
	// frames.
	tlru  lruList
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
	links  [2]lruLinks // indexed by poolLRU / tenantLRU
}

// lruList is a recency list threaded through the frames themselves (front
// = most recently used), so that moving a page in or out of the cache
// allocates nothing. which selects the link pair the list owns.
type lruList struct {
	which       int
	front, back *frame
}

type lruLinks struct{ prev, next *frame }

const (
	poolLRU   = iota // the pool-wide list
	tenantLRU        // the owner's list; quota-bounded tenants only
)

func (l *lruList) pushFront(fr *frame) {
	fr.links[l.which] = lruLinks{next: l.front}
	if l.front != nil {
		l.front.links[l.which].prev = fr
	} else {
		l.back = fr
	}
	l.front = fr
}

func (l *lruList) remove(fr *frame) {
	ln := fr.links[l.which]
	if ln.prev != nil {
		ln.prev.links[l.which].next = ln.next
	} else {
		l.front = ln.next
	}
	if ln.next != nil {
		ln.next.links[l.which].prev = ln.prev
	} else {
		l.back = ln.prev
	}
	fr.links[l.which] = lruLinks{}
}

func (l *lruList) moveToFront(fr *frame) {
	if l.front != fr {
		l.remove(fr)
		l.pushFront(fr)
	}
}

// NewBufferPool creates a pool of capPages frames. A capacity of zero
// means no page is ever cached: every logical access performs (and counts)
// a physical transfer.
func NewBufferPool(capPages int) *BufferPool {
	if capPages < 0 {
		capPages = 0
	}
	p := &BufferPool{capacity: capPages, lru: lruList{which: poolLRU}}
	p.ready.L = &p.mu
	return p
}

// Attach registers file as a tenant of the pool. quota > 0 bounds the
// frames the tenant may hold, 0 leaves it bounded only by the pool's
// capacity, and NoCache keeps its pages out of the pool entirely. Tenant
// names are labels for stats reporting; they need not be unique.
func (p *BufferPool) Attach(name string, file PagedFile, quota int) *Tenant {
	t := &Tenant{pool: p, name: name, file: file, quota: quota, tlru: lruList{which: tenantLRU}}
	p.mu.Lock()
	p.tenants = append(p.tenants, t)
	p.refreshTrackLocked()
	p.mu.Unlock()
	return t
}

// AttachGrowing is Attach, additionally growing the pool's capacity by the
// tenant's quota. It is the wiring used by substrates that bring their own
// buffer budget to a shared pool (the default DB composition): each
// substrate is bounded by its quota, the pool's capacity is the sum, and
// eviction behaviour matches the former independent buffers exactly.
// Detach returns the contributed capacity.
func (p *BufferPool) AttachGrowing(name string, file PagedFile, quota int) *Tenant {
	t := p.Attach(name, file, quota)
	if quota > 0 {
		p.mu.Lock()
		p.capacity += quota
		t.markGrown(quota)
		p.refreshTrackLocked()
		p.mu.Unlock()
	}
	return t
}

// markGrown records the capacity the tenant contributed via
// AttachGrowing, so Detach can return it. Attach set t.pool to the
// caller's pool, so the pool mutex the caller holds is t.pool.mu.
func (t *Tenant) markGrown(quota int) { t.grown = quota }

// Capacity returns the pool's capacity in frames.
func (p *BufferPool) Capacity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity
}

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
	// Quota is the tenant's frame quota (0 = none, NoCache = uncached).
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

// Capacity returns the frames the tenant may hold: its quota when set,
// otherwise the pool's capacity.
func (t *Tenant) Capacity() int {
	if t.quota > 0 {
		return t.quota
	}
	if t.quota < 0 {
		return 0
	}
	return t.pool.Capacity()
}

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
// cached, the pool has no frames, or the file has no such page — its read
// comes back with the file's own error, and the dense table never grows
// past the file. It is called with the pool mutex held, which makes
// reading capacity here safe against concurrent Attach/Detach.
func (t *Tenant) uncached(id PageID) bool {
	return t.quota < 0 || t.pool.capacity == 0 || uint(id) >= uint(t.file.NumPages())
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
// miss; it is the pool's only way to get a page. It is called and returns
// with the pool mutex held, and the frame is the caller's to use until it
// releases the mutex. A miss is read once, with the mutex released: a
// pending frame is admitted first, so concurrent requests for the page wait
// on ready and share the outcome. When no frame may cache the page (see
// uncached) the read goes into a frame borrowed from the free list, which is
// in no table or list, and the caller recycles it when done.
func (t *Tenant) loadLocked(id PageID) (fr *frame, borrowed bool, err error) {
	p := t.pool
	for fr = t.frameLocked(id); fr != nil; fr = t.frameLocked(id) {
		if fr.loaded {
			p.touchLocked(fr)
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
		if err = p.evictForLocked(t); err != nil {
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

// Get returns a private copy of page id. It is the copying convenience for
// tests and tools; record reads use ReadRecord, which decodes in place.
func (t *Tenant) Get(id PageID) ([]byte, error) {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, borrowed, err := t.loadLocked(id)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), fr.data...)
	if borrowed {
		p.recycleLocked(fr)
	}
	return out, nil
}

// Update fetches page id, applies fn to its contents in place, and marks
// the page dirty. A page no frame caches is written through immediately.
// fn runs under the pool mutex and must not call back into the pool. Update
// must not run concurrently with readers of the same page — the maintenance
// paths that use it hold their substrate exclusively — and like any access
// it releases the mutex for the physical read of a miss.
func (t *Tenant) Update(id PageID, fn func(page []byte) error) error {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	fr, borrowed, err := t.loadLocked(id)
	if err != nil {
		return err
	}
	if borrowed {
		defer p.recycleLocked(fr)
	}
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
// and returns any capacity it contributed through AttachGrowing. The
// tenant must not be used afterwards.
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
			break
		}
	}
	p.capacity -= t.grown
	t.grown = 0
	p.refreshTrackLocked()
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

// touchLocked records a reference to fr in the recency orders.
func (p *BufferPool) touchLocked(fr *frame) {
	if p.trackGlobal {
		p.lru.moveToFront(fr)
	}
	if fr.owner.quota > 0 {
		fr.owner.tlru.moveToFront(fr)
	}
}

// admitLocked installs a frame in the pool- and owner-recency structures.
func (p *BufferPool) admitLocked(fr *frame) {
	p.lru.pushFront(fr)
	if fr.owner.quota > 0 {
		// Only quota-bounded tenants need their own recency order.
		fr.owner.tlru.pushFront(fr)
	}
	t := fr.owner
	if n := int(fr.id) + 1 - len(t.table); n > 0 {
		t.table = append(t.table, make([]*frame, n)...)
	}
	t.table[fr.id] = fr
	t.held++
	p.nframes++
}

// removeLocked drops a frame from the pool- and owner-recency structures.
func (p *BufferPool) removeLocked(fr *frame) {
	p.lru.remove(fr)
	if fr.owner.quota > 0 {
		fr.owner.tlru.remove(fr)
	}
	fr.owner.table[fr.id] = nil
	fr.owner.held--
	p.nframes--
}

// evictForLocked makes room for one new frame of tenant t: first the
// tenant's own LRU frames while it sits at quota, then the pool's global
// LRU while the pool sits at capacity. Frames whose physical read is still
// in flight are skipped; if every candidate is one of those the pool
// temporarily exceeds its bound (by at most the number of concurrent
// faulters).
func (p *BufferPool) evictForLocked(t *Tenant) error {
	if t.quota > 0 {
		if err := p.evictLRULocked(&t.tlru, t); err != nil {
			return err
		}
	}
	return p.evictLRULocked(&p.lru, nil)
}

// evictLRULocked evicts loaded frames from the back of l: tenant t's own
// list while t sits at its quota, or (t == nil) the pool-wide list while
// the pool sits at capacity.
func (p *BufferPool) evictLRULocked(l *lruList, t *Tenant) error {
	for victim := l.back; victim != nil; {
		if t != nil && t.held < t.quota || t == nil && p.nframes < p.capacity {
			break
		}
		prev := victim.links[l.which].prev
		if victim.loaded {
			if victim.dirty {
				victim.owner.stats.Writes++
				if err := victim.owner.file.Write(victim.id, victim.data); err != nil {
					return fmt.Errorf("storage: evict page %d: %w", victim.id, err)
				}
			}
			victim.owner.stats.Evictions++
			p.removeLocked(victim)
			p.recycleLocked(victim)
		}
		victim = prev
	}
	return nil
}

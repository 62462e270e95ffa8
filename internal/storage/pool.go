package storage

import (
	"container/list"
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
// Concurrency: one mutex guards the frame table and LRU list, counters are
// atomic (snapshots and resets never block behind an in-flight page
// fault), a faulting Get releases the mutex for the duration of the
// physical read, and concurrent Gets of the same missing page coalesce
// into one read via the frame's ready latch.
type BufferPool struct {
	mu       sync.Mutex
	capacity int        // vetrnn:guardedby mu
	lru      *list.List // front = most recently used; values are *frame; vetrnn:guardedby mu
	nframes  int        // vetrnn:guardedby mu
	//lint:ignore vetrnn/tenantclose the registry tenants detach from, not an owned handle: Tenant.Detach removes its own entry
	tenants []*Tenant // vetrnn:guardedby mu
	// trackGlobal records whether the pool-wide LRU order can ever decide
	// an eviction: false when every tenant is quota-bounded and the
	// capacity covers the quota sum (the default DB composition), in
	// which case hits skip the global MoveToFront — the hit path then
	// costs what a private per-substrate buffer would.
	trackGlobal bool // vetrnn:guardedby mu
	// reads is the pool-wide physical-read counter — the only aggregate
	// maintained inline (it backs per-query I/O budgets and only moves on
	// misses, which pay a physical read anyway). Everything else is
	// summed from the tenants on demand, keeping the hit path at one
	// atomic increment.
	reads atomic.Int64
}

// refreshTrackLocked recomputes trackGlobal after a capacity or tenant
// change.
// vetrnn:holds p.mu
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
// own pool, NewBufferPool(pages).Attach("", file, 0) — or shared.
type Tenant struct {
	pool  *BufferPool
	name  string
	file  PagedFile
	quota int // >0 max frames; 0 no per-tenant cap; <0 never cached
	grown int // capacity contributed via AttachGrowing, returned on Detach; vetrnn:guardedby pool.mu

	frames map[PageID]*frame // vetrnn:guardedby pool.mu
	// tlru orders the tenant's own frames by recency so quota eviction is
	// O(1) instead of scanning the pool-wide list past other tenants'
	// frames.
	tlru  *list.List // vetrnn:guardedby pool.mu
	stats atomicStats

	// scratch page used for uncached updates.
	scratch []byte // vetrnn:guardedby pool.mu
}

// NoCache, passed as a tenant quota, keeps the tenant's pages out of the
// pool entirely: every access is a counted physical transfer (the paper's
// zero-buffer measurement mode), while other tenants keep caching.
const NoCache = -1

// atomicStats is the lock-free representation of Stats, so that I/O
// counters can be read and reset while queries fault pages in.
type atomicStats struct {
	reads     atomic.Int64
	hits      atomic.Int64
	writes    atomic.Int64
	evictions atomic.Int64
}

func (a *atomicStats) snapshot() Stats {
	return Stats{
		Reads:     a.reads.Load(),
		Hits:      a.hits.Load(),
		Writes:    a.writes.Load(),
		Evictions: a.evictions.Load(),
	}
}

func (a *atomicStats) reset() {
	a.reads.Store(0)
	a.hits.Store(0)
	a.writes.Store(0)
	a.evictions.Store(0)
}

// frame is one buffered page. ready is closed once data holds the page
// contents (or err the read failure); a frame created from data already in
// hand (Append, Update's synchronous admission) is born ready.
type frame struct {
	//lint:ignore vetrnn/tenantclose eviction back-pointer; the frame does not own its tenant
	owner *Tenant
	id    PageID
	data  []byte
	dirty bool
	elem  *list.Element // position in the pool-wide LRU
	telem *list.Element // position in the owner's LRU
	ready chan struct{}
	err   error
}

// loaded reports whether the frame's physical read has completed. Pending
// frames must not be evicted or written back.
func (fr *frame) loaded() bool {
	select {
	case <-fr.ready:
		return true
	default:
		return false
	}
}

func newReadyChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// NewBufferPool creates a pool of capPages frames. A capacity of zero
// means no page is ever cached: every logical access performs (and counts)
// a physical transfer.
func NewBufferPool(capPages int) *BufferPool {
	if capPages < 0 {
		capPages = 0
	}
	return &BufferPool{capacity: capPages, lru: list.New()}
}

// Attach registers file as a tenant of the pool. quota > 0 bounds the
// frames the tenant may hold, 0 leaves it bounded only by the pool's
// capacity, and NoCache keeps its pages out of the pool entirely. Tenant
// names are labels for stats reporting; they need not be unique.
func (p *BufferPool) Attach(name string, file PagedFile, quota int) *Tenant {
	t := &Tenant{
		pool:    p,
		name:    name,
		file:    file,
		quota:   quota,
		frames:  make(map[PageID]*frame),
		tlru:    list.New(),
		scratch: make([]byte, file.PageSize()),
	}
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
//
// vetrnn:holds t.pool.mu
func (t *Tenant) markGrown(quota int) { t.grown = quota }

// Grow raises the pool's capacity by pages.
func (p *BufferPool) Grow(pages int) {
	if pages <= 0 {
		return
	}
	p.mu.Lock()
	p.capacity += pages
	p.refreshTrackLocked()
	p.mu.Unlock()
}

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
	tenants := append([]*Tenant(nil), p.tenants...)
	p.mu.Unlock()
	var sum Stats
	for _, t := range tenants {
		sum = sum.Add(t.stats.snapshot())
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
	tenants := append([]*Tenant(nil), p.tenants...)
	p.mu.Unlock()
	for _, t := range tenants {
		t.stats.reset()
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
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TenantStats, len(p.tenants))
	for i, t := range p.tenants {
		out[i] = t.statsRow()
	}
	return out
}

// statsRow captures one tenant's TenantStats entry. Callers reach t by
// iterating t.pool.tenants under the pool mutex, which is t.pool.mu.
//
// vetrnn:holds t.pool.mu
func (t *Tenant) statsRow() TenantStats {
	return TenantStats{Name: t.name, Stats: t.stats.snapshot(), Frames: len(t.frames), Quota: t.quota}
}

// --- Tenant surface --------------------------------------------------------

// File returns the underlying paged file.
func (t *Tenant) File() PagedFile { return t.file }

// Name returns the label the tenant was attached under.
func (t *Tenant) Name() string { return t.name }

// Pool returns the pool the tenant draws frames from.
func (t *Tenant) Pool() *BufferPool { return t.pool }

// Quota returns the tenant's frame quota.
func (t *Tenant) Quota() int { return t.quota }

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
func (t *Tenant) Stats() Stats { return t.stats.snapshot() }

// ResetStats zeroes the tenant's I/O counters (the pool-wide aggregate is
// left running; reset it through BufferPool.ResetStats).
func (t *Tenant) ResetStats() { t.stats.reset() }

// uncached reports whether the tenant's pages bypass the pool. Every call
// site holds p.mu (Get/Update/Append take it before the cache decision),
// which is what makes reading capacity here safe against concurrent
// Grow/Attach/Detach.
// vetrnn:holds t.pool.mu
func (t *Tenant) uncached() bool { return t.quota < 0 || t.pool.capacity == 0 }

func (t *Tenant) countRead()  { t.stats.reads.Add(1); t.pool.reads.Add(1) }
func (t *Tenant) countHit()   { t.stats.hits.Add(1) }
func (t *Tenant) countWrite() { t.stats.writes.Add(1) }
func (t *Tenant) countEvict() { t.stats.evictions.Add(1) }

// Get returns the contents of page id. The returned slice aliases the
// pool frame (or a private copy when the page is uncached) and must be
// treated as read-only; it stays valid until the page is mutated through
// Update.
func (t *Tenant) Get(id PageID) ([]byte, error) {
	return t.GetInto(id, nil)
}

// GetInto is Get with a caller-provided page buffer for the uncached case:
// when no frame will cache the page, its contents are read into buf (grown
// if needed) instead of a fresh allocation, so hot read paths stay
// allocation-free. The returned slice is either a cached frame (read-only,
// valid until the page is mutated through Update) or buf.
func (t *Tenant) GetInto(id PageID, buf []byte) ([]byte, error) {
	p := t.pool
	p.mu.Lock()
	if fr, ok := t.frames[id]; ok {
		if p.trackGlobal {
			p.lru.MoveToFront(fr.elem)
		}
		if fr.telem != nil {
			t.tlru.MoveToFront(fr.telem)
		}
		p.mu.Unlock()
		<-fr.ready // no-op when loaded; else wait for the in-flight read
		if fr.err != nil {
			return nil, fr.err
		}
		t.countHit()
		return fr.data, nil
	}
	t.countRead()
	if t.uncached() {
		// No frame will hold this page; read into the caller's buffer so
		// that concurrent uncached readers do not share a scratch page.
		p.mu.Unlock()
		if len(buf) < t.file.PageSize() {
			buf = make([]byte, t.file.PageSize())
		}
		if err := t.file.Read(id, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	// Admit a pending frame, then perform the physical read without
	// holding the mutex; concurrent requests for the same page find the
	// pending frame above and wait on its latch.
	if err := p.evictForLocked(t); err != nil {
		p.mu.Unlock()
		return nil, err
	}
	fr := &frame{owner: t, id: id, data: make([]byte, t.file.PageSize()), ready: make(chan struct{})}
	p.admitLocked(fr)
	p.mu.Unlock()

	fr.err = t.file.Read(id, fr.data)
	if fr.err != nil {
		// Drop the failed frame so a later Get retries the read.
		p.mu.Lock()
		if cur, ok := t.frames[id]; ok && cur == fr {
			p.removeLocked(fr)
		}
		p.mu.Unlock()
	}
	close(fr.ready)
	if fr.err != nil {
		return nil, fr.err
	}
	return fr.data, nil
}

// Update fetches page id, applies fn to its contents in place, and marks
// the page dirty. An uncached page is written through immediately. Update
// must not run concurrently with readers of the same page; a miss is
// admitted synchronously under the lock, which is fine for the rare
// maintenance paths that use it.
func (t *Tenant) Update(id PageID, fn func(page []byte) error) error {
	p := t.pool
	for {
		p.mu.Lock()
		fr, ok := t.frames[id]
		if !ok {
			break
		}
		if fr.loaded() {
			t.countHit()
			if p.trackGlobal {
				p.lru.MoveToFront(fr.elem)
			}
			if fr.telem != nil {
				t.tlru.MoveToFront(fr.telem)
			}
			defer p.mu.Unlock()
			if err := fn(fr.data); err != nil {
				return err
			}
			fr.dirty = true
			return nil
		}
		// A concurrent Get is still reading this page in; wait for it and
		// re-check (the frame is dropped again on read failure).
		p.mu.Unlock()
		<-fr.ready
	}
	defer p.mu.Unlock()
	t.countRead()
	if t.uncached() {
		return t.updateUncachedLocked(id, fn)
	}
	if err := p.evictForLocked(t); err != nil {
		return err
	}
	fr := &frame{owner: t, id: id, data: make([]byte, t.file.PageSize()), ready: newReadyChan()}
	if err := t.file.Read(id, fr.data); err != nil {
		return err
	}
	p.admitLocked(fr)
	if err := fn(fr.data); err != nil {
		return err
	}
	fr.dirty = true
	return nil
}

// updateUncachedLocked applies fn to page id through the tenant's scratch
// page, writing the result through immediately (no frame caches it).
// vetrnn:holds t.pool.mu
func (t *Tenant) updateUncachedLocked(id PageID, fn func(page []byte) error) error {
	if err := t.file.Read(id, t.scratch); err != nil {
		return err
	}
	if err := fn(t.scratch); err != nil {
		return err
	}
	t.countWrite()
	return t.file.Write(id, t.scratch)
}

// Append allocates a new page in the underlying file (counted as one
// write) and admits it to the pool.
func (t *Tenant) Append(src []byte) (PageID, error) {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	t.countWrite()
	id, err := t.file.Append(src)
	if err != nil {
		return InvalidPage, err
	}
	if !t.uncached() {
		if err := p.evictForLocked(t); err != nil {
			return InvalidPage, err
		}
		fr := &frame{owner: t, id: id, data: make([]byte, t.file.PageSize()), ready: newReadyChan()}
		copy(fr.data, src)
		p.admitLocked(fr)
	}
	return id, nil
}

// Flush writes the tenant's dirty pages back to its file and retains the
// cache.
func (t *Tenant) Flush() error {
	p := t.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	return t.flushLocked()
}

// flushLocked writes the tenant's dirty pages back.
// vetrnn:holds t.pool.mu
func (t *Tenant) flushLocked() error {
	for _, fr := range t.frames {
		if fr.dirty {
			t.countWrite()
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
	for _, fr := range t.frames {
		if fr.loaded() {
			p.removeLocked(fr)
		}
	}
	return nil
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
	for _, fr := range t.frames {
		if fr.loaded() {
			p.removeLocked(fr)
		}
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
	return nil
}

// --- pool internals (all called with p.mu held; the pool's one mutex
// guards every tenant reached through frame back-pointers, which is what
// the vetrnn:holds wildcard declares) ---------------------------------------

// admitLocked installs a frame in the pool- and owner-recency structures.
// vetrnn:holds *
func (p *BufferPool) admitLocked(fr *frame) {
	fr.elem = p.lru.PushFront(fr)
	if fr.owner.quota > 0 {
		// Only quota-bounded tenants need their own recency order.
		fr.telem = fr.owner.tlru.PushFront(fr)
	}
	fr.owner.frames[fr.id] = fr
	p.nframes++
}

// removeLocked drops a frame from the pool- and owner-recency structures.
// vetrnn:holds *
func (p *BufferPool) removeLocked(fr *frame) {
	p.lru.Remove(fr.elem)
	if fr.telem != nil {
		fr.owner.tlru.Remove(fr.telem)
	}
	delete(fr.owner.frames, fr.id)
	p.nframes--
}

// evictForLocked makes room for one new frame of tenant t: first the
// tenant's own LRU frames while it sits at quota, then the pool's global
// LRU while the pool sits at capacity. Frames whose physical read is still
// in flight are skipped; if every candidate is pending the pool
// temporarily exceeds its bound (bounded by the number of concurrent
// faulters).
// vetrnn:holds *
func (p *BufferPool) evictForLocked(t *Tenant) error {
	if t.quota > 0 && len(t.frames) >= t.quota {
		if err := p.evictLRULocked(t.tlru, func() bool { return len(t.frames) >= t.quota }); err != nil {
			return err
		}
	}
	return p.evictLRULocked(p.lru, func() bool { return p.nframes >= p.capacity })
}

// evictLRULocked evicts loaded frames from the back of l (the pool-wide
// list or one tenant's) while more() holds.
func (p *BufferPool) evictLRULocked(l *list.List, more func() bool) error {
	elem := l.Back()
	for more() && elem != nil {
		victim := elem.Value.(*frame)
		prev := elem.Prev()
		if !victim.loaded() {
			elem = prev
			continue
		}
		if victim.dirty {
			victim.owner.countWrite()
			if err := victim.owner.file.Write(victim.id, victim.data); err != nil {
				return fmt.Errorf("storage: evict page %d: %w", victim.id, err)
			}
		}
		victim.owner.countEvict()
		p.removeLocked(victim)
		elem = prev
	}
	return nil
}

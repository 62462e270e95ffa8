package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphrnn/internal/graph"
)

// TestPoolTenantQuota pins the per-tenant quota: a tenant with quota q
// never holds more than q frames, no matter how many pages it touches,
// and never evicts another tenant's pages — not even when a pool of four
// pages is asked for two quotas of four.
func TestPoolTenantQuota(t *testing.T) {
	fa := newTestFile(t, 64, 8)
	fb := newTestFile(t, 64, 8)
	p := NewBufferPool(10)
	a := attach(t, p, "a", fa, 2)
	b := attach(t, p, "b", fb, 0)

	for i := 0; i < 5; i++ {
		if _, err := a.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	ts := p.TenantStats()
	if ts[0].Frames > 2 {
		t.Fatalf("tenant a holds %d frames, quota 2", ts[0].Frames)
	}
	if got := a.Stats(); got.Reads != 5 || got.Evictions != 3 {
		t.Fatalf("tenant a stats = %+v, want 5 reads, 3 evictions", got)
	}
	// The oldest pages fell out; re-reading one is a fresh fault.
	if _, err := a.Get(0); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats(); got.Reads != 6 {
		t.Fatalf("re-read of evicted page: reads = %d, want 6", got.Reads)
	}
	// The quota-2 tenant never disturbed tenant b.
	for i := 0; i < 4; i++ {
		if _, err := b.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := b.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Stats(); got.Reads != 4 || got.Hits != 4 {
		t.Fatalf("tenant b stats = %+v, want 4 reads 4 hits", got)
	}

	p = NewBufferPool(4)
	a = attach(t, p, "a", newTestFile(t, 64, 8), 4)
	b = attach(t, p, "b", newTestFile(t, 64, 8), 4)
	for _, tn := range []*Tenant{a, b} {
		for i := 0; i < 4; i++ {
			if _, err := tn.Get(PageID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if frames, ev := p.TenantStats()[0].Frames, a.Stats().Evictions; frames != 4 || ev != 0 {
		t.Fatalf("after b's faults tenant a holds %d frames with %d evictions, want 4 and 0", frames, ev)
	}
}

// TestPoolUnifiedStats checks the single stats source: the pool aggregate
// equals the sum of the tenants, maintained at the same increment sites.
func TestPoolUnifiedStats(t *testing.T) {
	fa := newTestFile(t, 64, 8)
	fb := newTestFile(t, 64, 8)
	p := NewBufferPool(8)
	a := attach(t, p, "graph", fa, 0)
	b := attach(t, p, "mat", fb, 0)

	for i := 0; i < 3; i++ {
		if _, err := a.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := a.Stats().Add(b.Stats())
	if got := p.Stats(); got != want {
		t.Fatalf("pool stats = %+v, tenant sum = %+v", got, want)
	}
	if got := p.Stats(); got.Reads != 5 || got.Hits != 2 {
		t.Fatalf("pool stats = %+v, want 5 reads 2 hits", got)
	}
	if hr := p.Stats().HitRate(); hr != 2.0/7.0 {
		t.Fatalf("hit rate = %v", hr)
	}
	if p.Reads() != 5 {
		t.Fatalf("Reads() = %d", p.Reads())
	}
	p.ResetStats()
	if got := p.Stats(); got != (Stats{}) {
		t.Fatalf("after reset: %+v", got)
	}
	if got := a.Stats(); got != (Stats{}) {
		t.Fatalf("tenant after pool reset: %+v", got)
	}
}

// TestPoolNoCacheTenant: a NoCache tenant never occupies frames, every
// access is physical, and cached tenants are unaffected.
func TestPoolNoCacheTenant(t *testing.T) {
	fa := newTestFile(t, 64, 4)
	fb := newTestFile(t, 64, 4)
	p := NewBufferPool(8)
	raw := attach(t, p, "raw", fa, NoCache)
	warm := attach(t, p, "warm", fb, 0)

	if _, err := warm.Get(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := raw.Get(1); err != nil {
			t.Fatal(err)
		}
	}
	if got := raw.Stats(); got.Reads != 3 || got.Hits != 0 {
		t.Fatalf("NoCache tenant stats = %+v", got)
	}
	if ts := p.TenantStats(); ts[0].Frames != 0 {
		t.Fatalf("NoCache tenant holds %d frames", ts[0].Frames)
	}
	if _, err := warm.Get(1); err != nil {
		t.Fatal(err)
	}
	if got := warm.Stats(); got.Reads != 1 || got.Hits != 1 {
		t.Fatalf("warm tenant stats = %+v", got)
	}
	// Uncached updates write through.
	if err := raw.Update(2, func(p []byte) error { p[3] = 7; return nil }); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := fa.Read(2, dst); err != nil || dst[3] != 7 {
		t.Fatalf("write-through failed: %v %d", err, dst[3])
	}
}

// TestPoolDetach: detaching a tenant flushes its dirty pages, frees its
// frames and gives its quota back to the pool's capacity.
func TestPoolDetach(t *testing.T) {
	fa := newTestFile(t, 64, 4)
	fb := newTestFile(t, 64, 4)
	p := NewBufferPool(0)
	a := p.Attach("a", fa, 4)
	b := p.Attach("b", fb, 4)
	if capacity, _ := p.Snapshot(); capacity != 8 {
		t.Fatalf("capacity = %d, want 8", capacity)
	}
	if err := a.Update(1, func(p []byte) error { p[0] = 42; return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Detach(); err != nil {
		t.Fatal(err)
	}
	if capacity, _ := p.Snapshot(); capacity != 4 {
		t.Fatalf("capacity after detach = %d, want 4", capacity)
	}
	dst := make([]byte, 64)
	if err := fa.Read(1, dst); err != nil || dst[0] != 42 {
		t.Fatalf("detach did not flush: %v %d", err, dst[0])
	}
	ts := p.TenantStats()
	if len(ts) != 1 || ts[0].Name != "b" || ts[0].Frames != 1 {
		t.Fatalf("tenants after detach = %+v", ts)
	}
}

// TestPoolInvalidate: the pool-wide cold start writes back every tenant's
// dirty pages and leaves no tenant a cached frame.
func TestPoolInvalidate(t *testing.T) {
	fa := newTestFile(t, 64, 4)
	p := NewBufferPool(8)
	a := attach(t, p, "a", fa, 4)
	b := attach(t, p, "b", newTestFile(t, 64, 4), 4)
	if err := a.Update(1, func(p []byte) error { p[0] = 42; return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := fa.Read(1, dst); err != nil || dst[0] != 42 {
		t.Fatalf("invalidate did not flush: %v %d", err, dst[0])
	}
	for _, ts := range p.TenantStats() {
		if ts.Frames != 0 {
			t.Fatalf("tenant %q keeps %d frames after Invalidate", ts.Name, ts.Frames)
		}
	}
}

// TestPoolConcurrentTenants is the pool's lock contract: the page tables,
// LRU lists and counters change only under the pool mutex, and the race
// detector is what checks it. Faulting readers hammer two tenants while
// every exported method that touches guarded state runs in a loop on its
// own goroutine, and a third tenant attaches, faults and detaches; with
// the lock deleted from any of them, -race -count=10 fails this test. A
// method added to the pool gets its goroutine here.
func TestPoolConcurrentTenants(t *testing.T) {
	fa := newTestFile(t, 64, 16)
	fb := newTestFile(t, 64, 16)
	fc := newTestFile(t, 64, 4)
	p := NewBufferPool(8)
	a := attach(t, p, "a", fa, 4)
	b := attach(t, p, "b", fb, 0)
	g := randomGraph(t, rand.New(rand.NewSource(3)), 60, 120)
	fd := NewMemFile(256)
	ds, err := BuildDiskStoreBuffer(g, fd, attach(t, p, "d", fd, 2), nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, op := range []func() error{
		// A session's reads, its replays at the flush, at a full log and
		// ahead of a real read, and its Close.
		func() error {
			q := ds.Session()
			for n := range logLen + 2 { // lists on two pages: a log entry a read
				if _, err := q.Adjacency(graph.NodeID(n%2*59), nil); err != nil {
					return err
				}
			}
			if _, err := q.Adjacency(graph.NodeID(30), nil); err != nil {
				return err
			}
			return errors.Join(q.Flush(), q.Close())
		},
		func() error { _ = p.Stats(); return nil },
		func() error { p.ResetStats(); return nil },
		func() error { _ = p.TenantStats(); return nil },
		p.Invalidate,
		func() error { _ = b.Stats(); return nil },
		func() error { b.ResetStats(); return nil },
		// page[0] is what the readers check; Update leaves it alone.
		func() error { return b.Update(3, func(page []byte) error { page[1]++; return nil }) },
		func() error {
			return a.ReadPage(5, func(page []byte) error {
				if page[0] != 5 {
					return fmt.Errorf("ReadPage: page 5 content = %d", page[0])
				}
				return nil
			})
		},
		b.Flush,
		b.Invalidate,
		func() error {
			c := p.Attach("c", fc, 2)
			_, err := c.Get(1)
			return errors.Join(err, c.Detach())
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := op(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tn := a
			if g%2 == 0 {
				tn = b
			}
			for i := 0; i < 200; i++ {
				id := PageID((g + i) % 16)
				page, err := tn.Get(id)
				if err != nil {
					t.Error(err)
					return
				}
				if page[0] != byte(id) {
					t.Errorf("page %d content = %d", id, page[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sum := a.Stats().Add(b.Stats()).Add(ds.Buffer().Stats())
	if got := p.Stats(); got != sum {
		t.Fatalf("pool stats %+v != tenant sum %+v", got, sum)
	}
}

// blockingFile holds every read of page while armed: the read announces
// itself on entered, waits for release and then fails with err, or — err
// nil — reads the page. A test uses it to line up coalesced waiters behind
// one physical read.
type blockingFile struct {
	*MemFile
	page    PageID
	err     error
	entered chan struct{}
	release chan struct{}
	armed   atomic.Bool
}

func newBlockingFile(t *testing.T, page PageID, err error) *blockingFile {
	f := &blockingFile{MemFile: newTestFile(t, 64, 4), page: page, err: err,
		entered: make(chan struct{}), release: make(chan struct{})}
	f.armed.Store(true)
	return f
}

func (f *blockingFile) Read(id PageID, dst []byte) error {
	if id == f.page && f.armed.Load() {
		f.entered <- struct{}{}
		<-f.release
		if f.err != nil {
			return f.err
		}
	}
	return f.MemFile.Read(id, dst)
}

// awaitFaultWaiters returns once n goroutines are inside sync.Cond.Wait.
// The pool's ready latch is the only Cond these tests reach, and a waiter
// holds the pool mutex until Wait has enqueued it, so from then on the
// faulter's broadcast cannot miss any of the n.
func awaitFaultWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		got := strings.Count(string(buf[:runtime.Stack(buf, true)]), "sync.(*Cond).Wait")
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d goroutines wait on the pending frame", got, n)
		}
	}
}

// TestFaultSharedByWaiters: a missing page is read once with the pool mutex
// released — Stats answers while the read is held — and when that read
// fails, every reader coalesced behind it gets its error, no frame is left,
// and the retry succeeds.
func TestFaultSharedByWaiters(t *testing.T) {
	injected := errors.New("injected read fault")
	f := newBlockingFile(t, 2, injected)
	p := NewBufferPool(4)
	tn := attach(t, p, "faulty", f, 0)

	const readers = 6
	errs := make(chan error, readers)
	read := func() {
		_, err := tn.Get(2)
		errs <- err
	}
	go read()
	<-f.entered // the first reader owns the physical read
	for i := 1; i < readers; i++ {
		go read()
	}
	awaitFaultWaiters(t, readers-1)
	if s := p.Stats(); s.Reads != 1 || s.Hits != 0 {
		t.Fatalf("stats during the fault = %+v, want the one read in flight", s)
	}
	close(f.release)
	for i := 0; i < readers; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, injected) {
				t.Fatalf("a reader of the failed page got %v, want the injected fault", err)
			}
		case <-f.entered:
			t.Fatal("a coalesced reader read the page again instead of sharing the failure")
		}
	}
	if s := tn.Stats(); s.Reads != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want the one failed read and no hits", s)
	}
	if frames := p.TenantStats()[0].Frames; frames != 0 {
		t.Fatalf("failed read left %d frame(s)", frames)
	}
	f.armed.Store(false)
	data, err := tn.Get(2)
	if err != nil || data[0] != 2 {
		t.Fatalf("retry after the fault = %v, %v", data, err)
	}
}

// TestUpdateFaultsLikeARead: Update gets its page the way a read does. A
// miss counts one read and leaves a dirty cached frame, a second Update one
// hit; an uncached tenant writes through a borrowed frame; a page beyond the
// file is the file's error and grows no table; and while an Update's own
// read is held, the pool still answers Stats and a second Update of the page
// waits for that read instead of issuing another.
func TestUpdateFaultsLikeARead(t *testing.T) {
	bump := func(page []byte) error { page[1]++; return nil }

	f := newTestFile(t, 64, 4)
	tn := newTenant(t, f, 4)
	for i, want := range []Stats{{Reads: 1}, {Reads: 1, Hits: 1}} {
		if err := tn.Update(2, bump); err != nil {
			t.Fatal(err)
		}
		if s := tn.Stats(); s != want {
			t.Fatalf("after Update %d: stats = %+v, want %+v", i+1, s, want)
		}
	}
	if frames := tn.pool.TenantStats()[0].Frames; frames != 1 {
		t.Fatalf("Update miss cached %d frame(s), want 1", frames)
	}
	if err := tn.Flush(); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 64)
	if err := f.Read(2, dst); err != nil || dst[1] != 2 || tn.Stats().Writes != 1 {
		t.Fatalf("flushed page byte = %d (%v), stats %+v; want both updates in one write", dst[1], err, tn.Stats())
	}
	if err := tn.Update(4, bump); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("Update beyond the file = %v, want ErrPageOutOfRange", err)
	}
	tn.pool.mu.Lock()
	size := len(tn.table)
	tn.pool.mu.Unlock()
	if size > f.NumPages() {
		t.Fatalf("page table has %d entries for a %d-page file", size, f.NumPages())
	}

	raw := attach(t, NewBufferPool(4), "raw", f, NoCache)
	if err := raw.Update(3, bump); err != nil {
		t.Fatal(err)
	}
	if s := raw.Stats(); s != (Stats{Reads: 1, Writes: 1}) {
		t.Fatalf("uncached Update: stats = %+v, want one read and one write", s)
	}
	if frames := raw.pool.TenantStats()[0].Frames; frames != 0 {
		t.Fatalf("uncached Update holds %d frame(s)", frames)
	}
	if err := f.Read(3, dst); err != nil || dst[1] != 1 {
		t.Fatalf("uncached Update did not write through: %d (%v)", dst[1], err)
	}

	bf := newBlockingFile(t, 2, nil)
	p := NewBufferPool(4)
	slow := attach(t, p, "slow", bf, 0)
	done := make(chan error, 2)
	go func() { done <- slow.Update(2, bump) }()
	<-bf.entered // the first Update owns the physical read
	go func() { done <- slow.Update(2, bump) }()
	awaitFaultWaiters(t, 1)
	if s := p.Stats(); s.Reads != 1 {
		t.Fatalf("stats during the fault = %+v, want the one read in flight", s)
	}
	close(bf.release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-bf.entered:
			t.Fatal("the second Update read the page again instead of waiting for the first")
		}
	}
	if s := slow.Stats(); s.Reads != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want one read shared by both Updates", s)
	}
	if page, err := slow.Get(2); err != nil || page[1] != 2 {
		t.Fatalf("page after both Updates = %v (%v)", page, err)
	}
}

// TestReadRecordConcurrentInvalidate is ReadRecord's lock contract under
// the race detector: eight goroutines read the records of a 64-page file
// through one 8-frame tenant — hits and misses both decoded under the pool
// mutex, the physical read of a miss outside it — while a ninth invalidates
// the tenant in a loop, dropping every loaded frame and leaving the pending
// ones to their faulters. Every decode equals a direct decode of the file
// and every read is counted once as a hit or a fault.
func TestReadRecordConcurrentInvalidate(t *testing.T) {
	const pageSize, pages, perPage, readers, rounds = 64, 64, 5, 8, 2000
	f := NewMemFile(pageSize)
	w, err := NewRecordWriter(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]RecRef, pages*perPage)
	for i := range refs {
		rec := binary.LittleEndian.AppendUint64(nil, uint64(i+1)*0x9e3779b97f4a7c15)
		if refs[i], err = w.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil || f.NumPages() != pages {
		t.Fatalf("test setup: %d pages, want %d (%v)", f.NumPages(), pages, err)
	}
	want := make([]uint64, len(refs))
	page := make([]byte, pageSize)
	for i, ref := range refs {
		if err := f.Read(ref.Page, page); err != nil {
			t.Fatal(err)
		}
		rec, err := ReadRecordSlot(page, int(ref.Slot))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = binary.LittleEndian.Uint64(rec)
	}

	tn := NewBufferPool(8).Attach("records", f, 0)
	done := make(chan struct{})
	invalidated := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				invalidated <- nil
				return
			default:
			}
			if err := tn.Invalidate(); err != nil {
				invalidated <- err
				return
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				at := rng.Intn(len(refs))
				var got uint64
				err := tn.ReadRecord(refs[at], func(rec []byte) error {
					got = binary.LittleEndian.Uint64(rec)
					return nil
				})
				if err != nil || got != want[at] {
					t.Errorf("record %d at %+v = %#x (%v), want %#x", at, refs[at], got, err, want[at])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	if err := <-invalidated; err != nil {
		t.Fatalf("Invalidate: %v", err)
	}
	if s := tn.Stats(); s.Hits+s.Reads != readers*rounds || s.Reads == 0 || s.Hits == 0 {
		t.Fatalf("stats = %+v, want hits + reads = %d with both paths taken", s, readers*rounds)
	}
	if err := tn.Detach(); err != nil {
		t.Fatalf("Detach: %v", err)
	}
}

// writeLog is a MemFile that records the order of its page writes.
type writeLog struct {
	*MemFile
	writes []PageID
}

func (f *writeLog) Write(id PageID, src []byte) error {
	f.writes = append(f.writes, id)
	return f.MemFile.Write(id, src)
}

// TestFlushAscendingPageOrder: write-back walks the dense page table, so
// dirty pages reach the file in ascending page order whatever order they
// were dirtied in — through Flush and through Invalidate alike.
func TestFlushAscendingPageOrder(t *testing.T) {
	f := &writeLog{MemFile: newTestFile(t, 64, 16)}
	tn := newTenant(t, f, 16)
	dirty := func(ids ...PageID) {
		for _, id := range ids {
			if err := tn.Update(id, func(p []byte) error { p[1]++; return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirty(11, 3, 14, 0, 7, 3, 9)
	if err := tn.Flush(); err != nil {
		t.Fatal(err)
	}
	dirty(15, 2, 8)
	if err := tn.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if want := []PageID{0, 3, 7, 9, 11, 14, 2, 8, 15}; !slices.Equal(f.writes, want) {
		t.Fatalf("write-back order = %v, want %v", f.writes, want)
	}
	if frames := tn.pool.TenantStats()[0].Frames; frames != 0 {
		t.Fatalf("Invalidate left %d frame(s)", frames)
	}
}

// TestPageBeyondFileGrowsNoTable: a corrupt reference to a page the file
// does not have (or a negative one) comes back as the file's own error,
// counted as the one read it tried, and neither grows the dense page table
// past the file nor leaves a frame behind.
func TestPageBeyondFileGrowsNoTable(t *testing.T) {
	f := newTestFile(t, 64, 4)
	tn := newTenant(t, f, 4)
	for _, id := range []PageID{4, 1 << 30, -1, -1 << 31} {
		if _, err := tn.Get(id); !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("Get(%d) = %v, want ErrPageOutOfRange", id, err)
		}
		err := tn.ReadRecord(RecRef{Page: id}, func([]byte) error { return nil })
		if !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("ReadRecord(page %d) = %v, want ErrPageOutOfRange", id, err)
		}
		if err := tn.Update(id, func([]byte) error { return nil }); !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("Update(%d) = %v, want ErrPageOutOfRange", id, err)
		}
	}
	if _, err := tn.Get(3); err != nil {
		t.Fatal(err)
	}
	tn.pool.mu.Lock()
	size, held := len(tn.table), tn.held
	tn.pool.mu.Unlock()
	if size > f.NumPages() || held != 1 {
		t.Fatalf("page table has %d entries for a %d-page file, %d held (want 1)", size, f.NumPages(), held)
	}
	if s := tn.Stats(); s.Reads != 13 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want 13 reads", s)
	}
}

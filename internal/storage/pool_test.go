package storage

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolTenantQuota pins the per-tenant quota: a tenant with quota q
// never holds more than q frames, no matter how many pages it touches,
// while an unbounded tenant in the same pool keeps caching freely.
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
}

// TestPoolSharedCapacity verifies global LRU pressure across tenants: two
// unbounded tenants compete for the pool's frames and evict each other.
func TestPoolSharedCapacity(t *testing.T) {
	fa := newTestFile(t, 64, 8)
	fb := newTestFile(t, 64, 8)
	p := NewBufferPool(4)
	a := attach(t, p, "a", fa, 0)
	b := attach(t, p, "b", fb, 0)

	for i := 0; i < 4; i++ {
		if _, err := a.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// b's faults push a's pages out of the shared pool.
	for i := 0; i < 4; i++ {
		if _, err := b.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.Stats(); got.Evictions != 4 {
		t.Fatalf("tenant a evictions = %d, want 4", got.Evictions)
	}
	if _, err := a.Get(0); err != nil {
		t.Fatal(err)
	}
	if got := a.Stats(); got.Reads != 5 {
		t.Fatalf("tenant a reads after churn = %d, want 5", got.Reads)
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
// frames and returns grown capacity.
func TestPoolDetach(t *testing.T) {
	fa := newTestFile(t, 64, 4)
	fb := newTestFile(t, 64, 4)
	p := NewBufferPool(0)
	a := p.AttachGrowing("a", fa, 4)
	b := p.AttachGrowing("b", fb, 4)
	if p.Capacity() != 8 {
		t.Fatalf("capacity = %d, want 8", p.Capacity())
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
	if p.Capacity() != 4 {
		t.Fatalf("capacity after detach = %d, want 4", p.Capacity())
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
	pg, err := b.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Invalidate(); !errors.Is(err, ErrPinned) {
		t.Fatalf("Invalidate with a pinned page: %v, want ErrPinned", err)
	}
	pg.Unpin()
}

// TestPoolConcurrentTenants hammers two tenants from many goroutines to
// give the race detector a shared-pool workout.
func TestPoolConcurrentTenants(t *testing.T) {
	fa := newTestFile(t, 64, 16)
	fb := newTestFile(t, 64, 16)
	p := NewBufferPool(8)
	a := attach(t, p, "a", fa, 4)
	b := attach(t, p, "b", fb, 0)

	var wg sync.WaitGroup
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
				pg, err := tn.Pin(id)
				if err != nil {
					t.Error(err)
					return
				}
				got := pg.Bytes()[0]
				pg.Unpin()
				if got != byte(id) {
					t.Errorf("page %d content = %d", id, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	sum := a.Stats().Add(b.Stats())
	if got := p.Stats(); got != sum {
		t.Fatalf("pool stats %+v != tenant sum %+v", got, sum)
	}
}

// TestPinnedFrameNotEvicted: a pinned page survives a scan of four times
// the tenant's quota with its bytes intact, the pool over-commits by at
// most the number of pinners while it is held, and it is evictable again
// after Unpin.
func TestPinnedFrameNotEvicted(t *testing.T) {
	const quota = 4
	f := newTestFile(t, 64, 4*quota+1)
	p := NewBufferPool(quota)
	tn := attach(t, p, "scan", f, quota)

	pinned, err := tn.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4*quota; i++ {
		pg, err := tn.Pin(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if got := pg.Bytes()[0]; got != byte(i) {
			t.Fatalf("page %d content = %d", i, got)
		}
		pg.Unpin()
		if frames := p.TenantStats()[0].Frames; frames > quota+1 {
			t.Fatalf("tenant holds %d frames with one pinner, quota %d", frames, quota)
		}
	}
	if got := pinned.Bytes()[0]; got != 0 {
		t.Fatalf("pinned page was overwritten: content = %d", got)
	}
	before := tn.Stats()
	again, err := tn.Pin(0)
	if err != nil {
		t.Fatal(err)
	}
	again.Unpin()
	if d := tn.Stats().Sub(before); d.Hits != 1 || d.Reads != 0 {
		t.Fatalf("re-pin of the pinned page: %+v, want one hit", d)
	}
	if err := tn.Invalidate(); !errors.Is(err, ErrPinned) {
		t.Fatalf("Invalidate with a pinned page = %v, want ErrPinned", err)
	}
	pinned.Unpin()
	// Unpinned, the page ages out like any other.
	for i := 1; i <= quota; i++ {
		if _, err := tn.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	before = tn.Stats()
	if _, err := tn.Get(0); err != nil {
		t.Fatal(err)
	}
	if d := tn.Stats().Sub(before); d.Reads != 1 {
		t.Fatalf("page 0 after unpin + scan: %+v, want a fresh fault", d)
	}
}

// TestDetachReportsPinnedPages: a page a reader never unpinned — cached or
// lent to an uncached read — makes Detach report ErrPinned instead of
// dropping it silently; the detach itself still completes.
func TestDetachReportsPinnedPages(t *testing.T) {
	for _, quota := range []int{0, NoCache} {
		f := newTestFile(t, 64, 4)
		p := NewBufferPool(4)
		tn := p.Attach("leaky", f, quota)
		pg, err := tn.Pin(1)
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.Detach(); !errors.Is(err, ErrPinned) {
			t.Fatalf("quota %d: Detach with a pinned page = %v, want ErrPinned", quota, err)
		}
		if n := len(p.TenantStats()); n != 0 {
			t.Fatalf("quota %d: %d tenants left after Detach", quota, n)
		}
		if got := pg.Bytes()[0]; got != 1 {
			t.Fatalf("quota %d: pinned bytes changed under Detach: %d", quota, got)
		}
		pg.Unpin()
	}
}

// blockingFile fails every read of page bad, after waiting for release so
// that a test can line up coalesced waiters behind the doomed read.
type blockingFile struct {
	*MemFile
	bad     PageID
	entered chan struct{}
	release chan struct{}
	fail    atomic.Bool
}

func (f *blockingFile) Read(id PageID, dst []byte) error {
	if id == f.bad && f.fail.Load() {
		f.entered <- struct{}{}
		<-f.release
		return errors.New("injected read fault")
	}
	return f.MemFile.Read(id, dst)
}

// TestReadErrorLeavesNoPin: a failing PagedFile.Read wakes the waiters
// coalesced behind it with the error, leaves neither a frame nor a pin, and
// the retry succeeds.
func TestReadErrorLeavesNoPin(t *testing.T) {
	f := &blockingFile{MemFile: newTestFile(t, 64, 4), bad: 2,
		entered: make(chan struct{}), release: make(chan struct{})}
	f.fail.Store(true)
	p := NewBufferPool(4)
	tn := attach(t, p, "faulty", f, 0)

	const readers = 6
	errs := make(chan error, readers)
	pin := func() {
		pg, err := tn.Pin(2)
		if err == nil {
			pg.Unpin()
		}
		errs <- err
	}
	go pin()
	<-f.entered // the first reader owns the physical read
	for i := 1; i < readers; i++ {
		go pin()
	}
	// The latecomers count no read; wait until all of them found the
	// pending frame (they pin it under the pool mutex before waiting).
	for deadline := time.Now().Add(5 * time.Second); ; {
		p.mu.Lock()
		pins := tn.table[2].pins.Load()
		p.mu.Unlock()
		if pins == readers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d readers reached the pending frame", pins, readers)
		}
		time.Sleep(time.Millisecond)
	}
	close(f.release)
	for i := 0; i < readers; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a reader of the failed page got no error")
		}
	}
	if s := tn.Stats(); s.Reads != 1 || s.Hits != 0 {
		t.Fatalf("stats = %+v, want the one failed read and no hits", s)
	}
	if frames := p.TenantStats()[0].Frames; frames != 0 {
		t.Fatalf("failed read left %d frame(s)", frames)
	}
	if err := tn.Invalidate(); err != nil {
		t.Fatalf("failed read left a pin: %v", err)
	}
	f.fail.Store(false)
	data, err := tn.Get(2)
	if err != nil || data[0] != 2 {
		t.Fatalf("retry after the fault = %v, %v", data, err)
	}
}

// TestReadRecordConcurrentInvalidate is ReadRecord's lock contract under
// the race detector: eight goroutines read the records of a 64-page file
// through one 8-frame tenant — hits decoded under the pool mutex, misses
// pinned — while a ninth invalidates the tenant in a loop. Every decode
// equals a direct decode of the file, every read is counted once as a hit
// or a fault, and nothing stays pinned.
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
			// A page a reader holds pinned mid-miss is retained and reported.
			if err := tn.Invalidate(); err != nil && !errors.Is(err, ErrPinned) {
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
				err := tn.ReadRecord(refs[at], func(_, rec []byte) error {
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
// past the file nor leaves a frame or a pin behind.
func TestPageBeyondFileGrowsNoTable(t *testing.T) {
	f := newTestFile(t, 64, 4)
	tn := newTenant(t, f, 4)
	for _, id := range []PageID{4, 1 << 30, -1, -1 << 31} {
		if _, err := tn.Pin(id); !errors.Is(err, ErrPageOutOfRange) {
			t.Fatalf("Pin(%d) = %v, want ErrPageOutOfRange", id, err)
		}
		err := tn.ReadRecord(RecRef{Page: id}, func(_, _ []byte) error { return nil })
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

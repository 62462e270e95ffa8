package storage

import (
	"errors"
	"sync"
	"testing"
)

func newTestFile(t *testing.T, pageSize, numPages int) *MemFile {
	t.Helper()
	f := NewMemFile(pageSize)
	page := make([]byte, pageSize)
	for i := 0; i < numPages; i++ {
		page[0] = byte(i)
		if _, err := f.Append(page); err != nil {
			t.Fatalf("append page %d: %v", i, err)
		}
	}
	return f
}

// newTenant wraps file with a private LRU cache of capPages pages: a pool
// with a single tenant. A capacity of zero means every logical access
// performs (and counts) a physical transfer.
func newTenant(t *testing.T, file PagedFile, capPages int) *Tenant {
	return attach(t, NewBufferPool(capPages), "", file, 0)
}

// attach is BufferPool.Attach for tests: at cleanup the tenant must detach
// cleanly — its dirty pages flush — and so leaves its pool.
func attach(t *testing.T, p *BufferPool, name string, file PagedFile, quota int) *Tenant {
	t.Helper()
	tn := p.Attach(name, file, quota)
	t.Cleanup(func() {
		if err := tn.Detach(); err != nil {
			t.Errorf("tenant %q: %v", name, err)
		}
	})
	return tn
}

func TestMemFileRoundTrip(t *testing.T) {
	f := newTestFile(t, 64, 4)
	dst := make([]byte, 64)
	for i := 0; i < 4; i++ {
		if err := f.Read(PageID(i), dst); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if dst[0] != byte(i) {
			t.Fatalf("page %d content = %d", i, dst[0])
		}
	}
	if err := f.Read(99, dst); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("read out of range: err = %v", err)
	}
	if err := f.Write(99, make([]byte, 64)); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("write out of range: err = %v", err)
	}
	if _, err := f.Append(make([]byte, 10)); err == nil {
		t.Fatal("append with wrong size succeeded")
	}
}

func TestBufferHitAndFault(t *testing.T) {
	f := newTestFile(t, 64, 8)
	bm := newTenant(t, f, 4)
	for i := 0; i < 4; i++ {
		if _, err := bm.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := bm.Stats(); s.Reads != 4 || s.Hits != 0 {
		t.Fatalf("stats after cold reads = %+v", s)
	}
	for i := 0; i < 4; i++ {
		if _, err := bm.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := bm.Stats(); s.Reads != 4 || s.Hits != 4 {
		t.Fatalf("stats after warm reads = %+v", s)
	}
}

func TestBufferLRUEviction(t *testing.T) {
	f := newTestFile(t, 64, 8)
	bm := newTenant(t, f, 2)
	mustGet := func(id PageID) {
		t.Helper()
		if _, err := bm.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(0) // cache: 0
	mustGet(1) // cache: 1,0
	mustGet(0) // touch 0 -> cache: 0,1
	mustGet(2) // evict 1 -> cache: 2,0
	mustGet(0) // hit
	if s := bm.Stats(); s.Reads != 3 || s.Hits != 2 {
		t.Fatalf("stats = %+v, want Reads=3 Hits=2", s)
	}
	mustGet(1) // fault again: 1 was evicted
	if s := bm.Stats(); s.Reads != 4 {
		t.Fatalf("stats = %+v, want Reads=4", s)
	}
}

func TestBufferZeroCapacity(t *testing.T) {
	f := newTestFile(t, 64, 4)
	bm := newTenant(t, f, 0)
	for i := 0; i < 3; i++ {
		if _, err := bm.Get(1); err != nil {
			t.Fatal(err)
		}
	}
	if s := bm.Stats(); s.Reads != 3 || s.Hits != 0 {
		t.Fatalf("capacity-0 stats = %+v, want 3 faults", s)
	}
	// Update must write through.
	err := bm.Update(2, func(p []byte) error { p[3] = 42; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if s := bm.Stats(); s.Writes != 1 {
		t.Fatalf("writes = %d, want 1", s.Writes)
	}
	dst := make([]byte, 64)
	if err := f.Read(2, dst); err != nil || dst[3] != 42 {
		t.Fatalf("write-through failed: %d %v", dst[3], err)
	}
}

func TestBufferDirtyWriteBack(t *testing.T) {
	f := newTestFile(t, 64, 8)
	bm := newTenant(t, f, 1)
	if err := bm.Update(0, func(p []byte) error { p[1] = 9; return nil }); err != nil {
		t.Fatal(err)
	}
	// Underlying file must not see the change yet.
	dst := make([]byte, 64)
	if err := f.Read(0, dst); err != nil || dst[1] == 9 {
		t.Fatalf("dirty page leaked to file early (b=%d, err=%v)", dst[1], err)
	}
	// Evict by touching another page.
	if _, err := bm.Get(1); err != nil {
		t.Fatal(err)
	}
	if err := f.Read(0, dst); err != nil || dst[1] != 9 {
		t.Fatalf("dirty page not written back on eviction (b=%d, err=%v)", dst[1], err)
	}
	if s := bm.Stats(); s.Writes != 1 {
		t.Fatalf("writes = %d, want 1", s.Writes)
	}
}

func TestBufferFlushAndInvalidate(t *testing.T) {
	f := newTestFile(t, 64, 8)
	bm := newTenant(t, f, 8)
	for i := 0; i < 4; i++ {
		id := PageID(i)
		if err := bm.Update(id, func(p []byte) error { p[2] = byte(10 + i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := bm.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := bm.Stats(); s.Writes != 4 {
		t.Fatalf("writes = %d, want 4", s.Writes)
	}
	// Second flush writes nothing.
	if err := bm.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := bm.Stats(); s.Writes != 4 {
		t.Fatalf("writes after idempotent flush = %d, want 4", s.Writes)
	}
	if err := bm.Invalidate(); err != nil {
		t.Fatal(err)
	}
	bm.ResetStats()
	if _, err := bm.Get(0); err != nil {
		t.Fatal(err)
	}
	if s := bm.Stats(); s.Reads != 1 {
		t.Fatalf("cold read after Invalidate: stats = %+v", s)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{Reads: 5, Hits: 2, Writes: 1}
	b := Stats{Reads: 2, Hits: 1, Writes: 1}
	if got := a.Add(b); got != (Stats{Reads: 7, Hits: 3, Writes: 2}) {
		t.Fatalf("Add = %+v", got)
	}
	if got := a.Sub(b); got != (Stats{Reads: 3, Hits: 1, Writes: 0}) {
		t.Fatalf("Sub = %+v", got)
	}
	if a.IO() != 6 {
		t.Fatalf("IO = %d", a.IO())
	}
}

// TestBufferConcurrentGet hammers Get from many goroutines: same-page
// faults must coalesce into one physical read (waiters count as hits), and
// page contents must come back intact under eviction churn.
func TestBufferConcurrentGet(t *testing.T) {
	f := newTestFile(t, 64, 8)
	bm := newTenant(t, f, 8)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := bm.Get(3)
			if err != nil {
				t.Error(err)
				return
			}
			if data[0] != 3 {
				t.Errorf("page 3 content = %d", data[0])
			}
		}()
	}
	wg.Wait()
	if s := bm.Stats(); s.Reads != 1 || s.Hits != 15 {
		t.Fatalf("stats = %+v, want exactly one physical read", s)
	}

	// Tiny buffer: concurrent faults across pages with eviction churn.
	bm2 := newTenant(t, f, 2)
	for round := 0; round < 4; round++ {
		for p := 0; p < 8; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				data, err := bm2.Get(PageID(p))
				if err != nil {
					t.Error(err)
					return
				}
				if data[0] != byte(p) {
					t.Errorf("page %d content = %d", p, data[0])
				}
			}(p)
		}
	}
	wg.Wait()
}

// TestBufferConcurrentGetError checks that a failed fault propagates to all
// coalesced waiters and is retried (not cached) afterwards.
func TestBufferConcurrentGetError(t *testing.T) {
	f := newTestFile(t, 64, 2)
	bm := newTenant(t, f, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := bm.Get(77); err == nil {
				t.Error("out-of-range page read succeeded")
			}
		}()
	}
	wg.Wait()
	// The failed page must not linger as a frame.
	if _, err := bm.Get(1); err != nil {
		t.Fatal(err)
	}
}

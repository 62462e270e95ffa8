package storage_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// sessionCase is one store shape the replay tests drive: a graph, a node
// order (nil: BFS) and a buffer quota, on 1 KB pages — small enough that
// BRITE-2K's hubs (degree up to 131) chain their lists over several pages.
type sessionCase struct {
	name   string
	g      *graph.Graph
	order  []graph.NodeID
	buffer int
}

func sessionCases(t *testing.T) []sessionCase {
	t.Helper()
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 7, Nodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	brite, err := gen.Brite(gen.BriteConfig{Seed: 7, Nodes: 2000, AvgDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	var cases []sessionCase
	for _, g := range []struct {
		name string
		g    *graph.Graph
	}{{"road-2K", road}, {"brite-2K", brite}} {
		for _, l := range []struct {
			name  string
			order []graph.NodeID
		}{{"bfs", nil}, {"clustered", storage.ClusteredOrder(g.g, sessionPageSize)}} {
			for _, buffer := range []int{storage.NoCache, 1, 4, 32} {
				cases = append(cases, sessionCase{
					name: fmt.Sprintf("%s/%s/buffer=%d", g.name, l.name, buffer),
					g:    g.g, order: l.order, buffer: buffer,
				})
			}
		}
	}
	return cases
}

const sessionPageSize = 1024

// build packs c into file behind a private buffer of c.buffer pages.
func (c sessionCase) build(t *testing.T, file storage.PagedFile) *storage.DiskStore {
	t.Helper()
	ds, err := storage.BuildDiskStore(c.g, file, c.buffer, c.order)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// readSequence draws the nodes a replay test reads: mostly from a working
// set of 40 nodes redrawn every 300 reads, as the range-NN probes of one
// query revisit a neighbourhood, and one read in ten anywhere.
func readSequence(rng *rand.Rand, nodes, length int) []graph.NodeID {
	seq := make([]graph.NodeID, length)
	work := make([]graph.NodeID, 40)
	for i := range seq {
		if i%300 == 0 {
			for j := range work {
				work[j] = graph.NodeID(rng.Intn(nodes))
			}
		}
		if rng.Intn(10) == 0 {
			seq[i] = graph.NodeID(rng.Intn(nodes))
		} else {
			seq[i] = work[rng.Intn(len(work))]
		}
	}
	return seq
}

// sameBuffer fails unless the two tenants count the same traffic and
// order their frames alike.
func sameBuffer(t *testing.T, at string, plain, memo *storage.Tenant) {
	t.Helper()
	if p, m := plain.Stats(), memo.Stats(); p != m {
		t.Fatalf("%s: session stats %+v, plain reads %+v", at, m, p)
	}
	if p, m := plain.LRUPages(), memo.LRUPages(); !slices.Equal(p, m) {
		t.Fatalf("%s: session LRU %v, plain reads %v", at, m, p)
	}
}

// TestConcurrentSessionsReplayExactly: a Session's deferred page accesses
// replay to exactly the buffer state of reading every list through
// DiskStore.Adjacency. Twin stores read the same random sequence, one
// through a session flushed at random points; every list is equal, and at
// every flush so are the tenants' Reads, Hits, Evictions and LRU orders —
// on road-2K and BRITE-2K (whose hubs' lists span pages), in BFS and
// clustered order, uncached and at 1, 4 and 32 pages. The cases run in
// parallel, and a last one runs four sessions at once over one store:
// their lists stay right, and the pool counts every access they owed it.
func TestConcurrentSessionsReplayExactly(t *testing.T) {
	cases := sessionCases(t)
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			plain := c.build(t, storage.NewMemFile(sessionPageSize))
			memo := c.build(t, storage.NewMemFile(sessionPageSize))
			rng := rand.New(rand.NewSource(int64(i)))
			q := memo.Session()
			var a, b []graph.Edge
			var err error
			for step, n := range readSequence(rng, c.g.NumNodes(), 3000) {
				if a, err = plain.Adjacency(n, a); err != nil {
					t.Fatal(err)
				}
				if b, err = q.Adjacency(n, b); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a, b) {
					t.Fatalf("step %d: node %d reads %v through the session, %v plain", step, n, b, a)
				}
				if rng.Intn(16) == 0 {
					if err := q.Flush(); err != nil {
						t.Fatal(err)
					}
					sameBuffer(t, fmt.Sprintf("flush after step %d", step), plain.Buffer(), memo.Buffer())
				}
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			sameBuffer(t, "close", plain.Buffer(), memo.Buffer())
		})
	}

	// Sessions reading one store at once: only Reads + Hits is exact, since a
	// deferred hit does not keep its page recent against another session's
	// faults, so Reads, Evictions and the LRU order may differ from plain
	// reads.
	t.Run("shared", func(t *testing.T) {
		t.Parallel()
		c := cases[6] // road-2K, clustered, 4 pages
		ds := c.build(t, storage.NewMemFile(sessionPageSize))
		var accesses atomic.Int64
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + w)))
				var want []graph.Edge
				for range 4 {
					q := ds.Session()
					for _, n := range readSequence(rng, c.g.NumNodes(), 500) {
						got, err := q.Adjacency(n, nil)
						if err == nil {
							want, err = c.g.Adjacency(n, want)
						}
						if err != nil || !slices.Equal(got, want) {
							t.Errorf("node %d: %v, %v; want %v", n, got, err, want)
							return
						}
						accesses.Add(1) // road lists fit one page
						if rng.Intn(32) == 0 {
							if err := q.Flush(); err != nil {
								t.Error(err)
								return
							}
						}
					}
					if err := q.Close(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if s := ds.Buffer().Stats(); s.Reads+s.Hits != accesses.Load() {
			t.Fatalf("pool counted %d reads + %d hits for %d accesses", s.Reads, s.Hits, accesses.Load())
		}
	})
}

// TestSessionForgetsWhenFull: a query that reads more lists than a
// session keeps (road-6K, every node twice, nearby nodes read in turn)
// fills the memo and starts it over several times; every list and the
// buffer state at the end are still those of plain reads.
func TestSessionForgetsWhenFull(t *testing.T) {
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: 3, Nodes: 6000})
	if err != nil {
		t.Fatal(err)
	}
	c := sessionCase{g: g, buffer: 4}
	plain := c.build(t, storage.NewMemFile(sessionPageSize))
	memo := c.build(t, storage.NewMemFile(sessionPageSize))
	q := memo.Session()
	order := storage.BFSOrder(g)
	var a, b []graph.Edge
	for pass := range 2 {
		for i, n := range order {
			for _, m := range order[max(i-3, 0) : i+1] {
				if a, err = plain.Adjacency(m, a); err != nil {
					t.Fatal(err)
				}
				if b, err = q.Adjacency(m, b); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(a, b) {
					t.Fatalf("pass %d, node %d: %v through the session, %v plain", pass, n, b, a)
				}
			}
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	sameBuffer(t, "close", plain.Buffer(), memo.Buffer())
}

// failingFile fails its fail-th Read (counting from 1) with errInjected.
type failingFile struct {
	storage.PagedFile
	reads, fail int
}

var errInjected = errors.New("injected read fault")

func (f *failingFile) Read(id storage.PageID, dst []byte) error {
	if f.reads++; f.reads == f.fail {
		return errInjected
	}
	return f.PagedFile.Read(id, dst)
}

// TestSessionFaultSharedByReplay: a physical read that fails fails the
// session's query too, with the same error and after the same reads. The
// twin stores' files fail their n-th read; the plain reads stop at the
// failing list, and the session — which may owe that read in its log —
// surfaces the injected error by the next flush, with Reads, Hits,
// Evictions and the LRU order equal to the plain store's.
func TestSessionFaultSharedByReplay(t *testing.T) {
	for _, c := range sessionCases(t) {
		if c.buffer == 1 || c.buffer == 32 {
			continue // the uncached and 4-page rows fault often enough
		}
		for _, fail := range []int{1, 5, 40} {
			plainFile := &failingFile{PagedFile: storage.NewMemFile(sessionPageSize), fail: -1}
			memoFile := &failingFile{PagedFile: storage.NewMemFile(sessionPageSize), fail: -1}
			plain, memo := c.build(t, plainFile), c.build(t, memoFile)
			plainFile.fail, memoFile.fail = fail, fail
			q := memo.Session()
			rng := rand.New(rand.NewSource(int64(fail)))
			var perr, merr error
			for _, n := range readSequence(rng, c.g.NumNodes(), 2000) {
				_, perr = plain.Adjacency(n, nil)
				_, merr = q.Adjacency(n, nil)
				if perr != nil && merr == nil {
					merr = q.Flush()
				}
				if merr != nil || perr != nil {
					break
				}
			}
			at := fmt.Sprintf("%s, read %d failing", c.name, fail)
			if perr == nil && merr == nil {
				continue // the sequence never reached the failing read
			}
			if !errors.Is(perr, errInjected) || !errors.Is(merr, errInjected) {
				t.Fatalf("%s: plain error %v, session error %v; want the injected fault on both", at, perr, merr)
			}
			sameBuffer(t, at, plain.Buffer(), memo.Buffer())
			q.Close()
		}
	}
}

// TestDiskStoreAfterClose: a closed store answers reads, plain and through
// a session, with an error instead of a nil-pointer panic on its detached
// tenant, and still reports its size.
func TestDiskStoreAfterClose(t *testing.T) {
	c := sessionCases(t)[0]
	ds := c.build(t, storage.NewMemFile(sessionPageSize))
	pages := ds.NumPages()
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Adjacency(3, nil); err == nil {
		t.Fatal("a closed store read a list")
	}
	q := ds.Session()
	if _, err := q.Adjacency(3, nil); err == nil {
		t.Fatal("a session of a closed store read a list")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if ds.NumPages() != pages {
		t.Fatalf("a closed store reports %d pages, built %d", ds.NumPages(), pages)
	}
}

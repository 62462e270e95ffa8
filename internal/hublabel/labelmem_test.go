//go:build linux || darwin

package hublabel

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
)

// The mapping's contract: the labels leave the collected heap, they cannot
// be written, and they are unmapped once their labeling is unreachable —
// never while anything can still read them.

// liveHeap is the Go heap after two full collections.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestLabelMappingHeap: the road-20K labeling retains under 5 % of its
// packed entry bytes on the Go heap — the offsets and little else; with the
// entries on the heap it retained all of them.
func TestLabelMappingHeap(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds the 20K-node road labeling to read the live heap")
	}
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 2006, Nodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := BuildOpt(road, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	held := liveHeap()
	entries, width := l.Entries(), l.out.width
	entryBytes := int64(entries) * int64(width)
	_, mappedBytes := MappedLabels()
	runtime.KeepAlive(l)
	retained := held - liveHeap() // what dropping the labeling frees
	t.Logf("road-20K: %d entries of %d bytes, %d entry bytes mapped (%d in all mappings), %d heap bytes retained",
		entries, width, entryBytes, mappedBytes, retained)
	if 20*retained >= entryBytes {
		t.Errorf("the labeling retains %d heap bytes, %.1f %% of its %d entry bytes; want < 5 %%",
			retained, 100*float64(retained)/float64(entryBytes), entryBytes)
	}
	if mappedBytes < entryBytes {
		t.Errorf("%d bytes mapped, fewer than the labeling's %d entry bytes", mappedBytes, entryBytes)
	}
}

// TestLabelMappingReadOnly: a write into the sealed entries faults, and
// under SetPanicOnFault the fault is a runtime.Error panic that leaves the
// byte as it was.
func TestLabelMappingReadOnly(t *testing.T) {
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 11, Nodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(road)
	if err != nil {
		t.Fatal(err)
	}
	want := l.out.entries[0]
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	func() {
		defer func() {
			if r, ok := recover().(runtime.Error); !ok {
				t.Fatalf("a write into the label entries recovered %v, want a runtime.Error", r)
			}
		}()
		l.out.entries[0] = ^want
	}()
	if got := l.out.entries[0]; got != want {
		t.Fatalf("the faulted write changed entry byte 0 from %#x to %#x", want, got)
	}
	runtime.KeepAlive(l)
}

// TestLabelMappingReleased builds and drops 500 small labelings, undirected
// and directed, while another goroutine reads two kept ones: one mapping a
// side is made (none for an empty side), every dropped one is unmapped
// after collection, and the kept labels read the same throughout.
func TestLabelMappingReleased(t *testing.T) {
	und, err := gen.Grid(gen.GridConfig{Seed: 5, Nodes: 64, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(und.NumNodes())
	und.ForEachEdge(func(u, v graph.NodeID, w graph.Dist) {
		if err := b.AddArc(u, v, und.Float(w)); err != nil {
			t.Fatal(err)
		}
		if err := b.AddArc(v, u, 2*und.Float(w)); err != nil {
			t.Fatal(err)
		}
	})
	dir, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	build := func(g graph.Access) *Labeling {
		l, err := buildSeq(g)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	count := func() int { n, _ := MappedLabels(); return n }
	// Cleanups run on their own goroutine after a collection: settle waits
	// until the count stops moving, waitFor until it reaches want.
	settle := func() int {
		for prev := -1; ; {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
			n := count()
			if n == prev {
				return n
			}
			prev = n
		}
	}
	waitFor := func(want int) int {
		deadline := time.Now().Add(10 * time.Second)
		for count() != want && time.Now().Before(deadline) {
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		return count()
	}

	base := settle()
	empty := newLabeling(1, false, [][]Entry{nil}, nil)
	if count() != base || empty.Entries() != 0 {
		t.Fatalf("an empty labeling made %d mappings", count()-base)
	}
	kept := []*Labeling{build(und)}
	if got := count() - base; got != 1 {
		t.Fatalf("an undirected labeling made %d mappings, want 1", got)
	}
	kept = append(kept, build(dir))
	if got := count() - base; got != 3 {
		t.Fatalf("a directed labeling made %d mappings, want 2", got-1)
	}

	snapshot := func(l *Labeling) []Entry {
		var all, buf []Entry
		for v := range graph.NodeID(l.NumNodes()) {
			buf, _ = l.OutLabel(v, buf)
			all = append(all, buf...)
			buf, _ = l.InLabel(v, buf)
			all = append(all, buf...)
		}
		return all
	}
	want := [][]Entry{snapshot(kept[0]), snapshot(kept[1])}
	stop, diverged := make(chan struct{}), make(chan int, 1)
	go func() {
		defer close(diverged)
		for {
			for i, l := range kept {
				if !slices.Equal(snapshot(l), want[i]) {
					diverged <- i
					return
				}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	func() {
		defer close(stop) // on every path, so the reader always exits
		for i := range 500 {
			g := graph.Access(und)
			if i%2 == 1 {
				g = dir
			}
			build(g)
			if i%50 == 0 {
				runtime.GC()
			}
		}
	}()
	if i, ok := <-diverged; ok {
		t.Fatalf("kept labeling %d read differently while others were unmapped", i)
	}
	if got := waitFor(base + 3); got != base+3 {
		t.Fatalf("%d label mappings live after collection, want the kept ones' %d", got-base, 3)
	}
	runtime.KeepAlive(kept)
}

package hublabel

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// csr is one side of a labeling as labelSet.label reads it back: the CSR
// offsets and every entry, node by node.
type csr struct {
	offsets []int32
	entries []Entry
}

func decodeSide(l *Labeling, s *labelSet) csr {
	c := csr{offsets: s.offsets}
	var buf []Entry
	for v := range graph.NodeID(l.numNodes) {
		buf = s.label(v, buf)
		c.entries = append(c.entries, buf...)
	}
	runtime.KeepAlive(l) // the entries are unmapped with their labeling
	return c
}

// sameCSR compares two decoded sides exactly: identical offsets, hub ids
// and distances.
func sameCSR(t *testing.T, side string, a, b csr) {
	t.Helper()
	if len(a.offsets) != len(b.offsets) || len(a.entries) != len(b.entries) {
		t.Fatalf("%s: size mismatch: %d/%d entries", side, len(a.entries), len(b.entries))
	}
	for i := range a.offsets {
		if a.offsets[i] != b.offsets[i] {
			t.Fatalf("%s: offsets diverge at node %d: %d vs %d", side, i, a.offsets[i], b.offsets[i])
		}
	}
	for i, e := range a.entries {
		if f := b.entries[i]; e != f {
			t.Fatalf("%s: entry %d diverges: (%d,%v) vs (%d,%v)", side, i, e.Hub, e.Dist, f.Hub, f.Dist)
		}
	}
}

// sameLabeling compares two labelings bit for bit on both sides.
func sameLabeling(t *testing.T, want, got *Labeling) {
	t.Helper()
	if want.numNodes != got.numNodes || want.directed != got.directed {
		t.Fatalf("shape mismatch: (%d,%v) vs (%d,%v)", want.numNodes, want.directed, got.numNodes, got.directed)
	}
	sameCSR(t, "out", decodeSide(want, &want.out), decodeSide(got, &got.out))
	if want.directed {
		sameCSR(t, "in", decodeSide(want, &want.in), decodeSide(got, &got.in))
	}
}

// fingerprint is the SHA-256 of a labeling's CSR as label reads it back,
// out side then in side (the same set twice when undirected): offsets, hub
// ids as int32, and every distance as the math.Float64bits of the float64 it
// counts on the quantum 2^logQ, little endian. Equal fingerprints mean the
// labels are the same.
func fingerprint(l *Labeling, logQ int) string {
	h := sha256.New()
	for _, s := range []*labelSet{&l.out, &l.in} {
		c := decodeSide(l, s)
		hubs, dists := make([]int32, len(c.entries)), make([]uint64, len(c.entries))
		for i, e := range c.entries {
			hubs[i], dists[i] = int32(e.Hub), math.Float64bits(math.Ldexp(float64(e.Dist), logQ))
		}
		for _, field := range []any{c.offsets, hubs, dists} {
			if err := binary.Write(h, binary.LittleEndian, field); err != nil {
				panic(err)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestLabelingFingerprint pins the labels themselves, not only the batched
// build to the sequential one: the labeling is a pure function of graph and
// landmark order, so a change to how it is computed must reproduce these
// bits; only a new order may move them, on purpose.
func TestLabelingFingerprint(t *testing.T) {
	graphs := testGraphs(t)
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"road", graphs["road"], "cd12b0e918723f469d9b3680cebf2f6d2a953c2bae960938c105322bc91d9113"},
		{"grid", graphs["grid"], "62ccca6c478951e9ef95541697dc662394f78bf3ad540bacec899843988f9774"},
		{"digraph", testDigraph(t, 21), "020685c6954640bb94751a6d4ca648f0dd7dcb31984cdcb7bad9383b46f5ac98"},
	} {
		l, err := buildSeq(c.g)
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(l, c.g.LogQuantum()); got != c.want {
			t.Errorf("%s: labeling fingerprint %s, pinned %s", c.name, got, c.want)
		}
	}
	// The label pages are a pure function of the labeling
	// (TestStoreRoundTrip), so road's are pinned too: only a new labeling or
	// a new page layout may move them, on purpose.
	l, err := buildSeq(graphs["road"])
	if err != nil {
		t.Fatal(err)
	}
	f := storage.NewMemFile(storage.DefaultPageSize)
	if _, err := NewStore(l, f, storage.NewBufferPool(1).Attach("", f, 0)); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	page := make([]byte, f.PageSize())
	for id := storage.PageID(0); int(id) < f.NumPages(); id++ {
		if err := f.Read(id, page); err != nil {
			t.Fatal(err)
		}
		h.Write(page)
	}
	const pinned = "7c985b5af7c8b50dc45a66807627c385f4b5546512dc59a326e56cdabf36fb2c"
	if got := hex.EncodeToString(h.Sum(nil)); got != pinned {
		t.Errorf("road: label pages (%d) SHA-256 %s, pinned %s", f.NumPages(), got, pinned)
	}
}

// TestFinalize checks finalize's counting transpose against a sort-based
// reference CSR on random labels — distinct hubs in arbitrary order, empty
// labels, hub n-1 in use — through undirected and directed newLabeling.
func TestFinalize(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	random := func(n int) [][]Entry {
		lists := make([][]Entry, n)
		for v := range lists {
			hubs := rng.Perm(n) // node 0 holds every hub, n-1 included
			switch {
			case v%3 == 1:
				continue
			case v > 0:
				hubs = hubs[:rng.Intn(n)+1]
			}
			for _, h := range hubs {
				lists[v] = append(lists[v], Entry{Hub: graph.NodeID(h), Dist: graph.Dist(rng.Int63n(1 << 53))})
			}
		}
		return lists
	}
	reference := func(lists [][]Entry) csr {
		ref := csr{offsets: make([]int32, len(lists)+1)}
		for v, label := range lists {
			ref.entries = append(ref.entries, slices.SortedFunc(slices.Values(label), func(a, b Entry) int { return cmp.Compare(a.Hub, b.Hub) })...)
			ref.offsets[v+1] = int32(len(ref.entries))
		}
		return ref
	}
	for _, n := range []int{1, 2, 5, 64, 300} {
		out, in := random(n), random(n)
		und := newLabeling(n, false, out, nil)
		sameCSR(t, "undirected", reference(out), decodeSide(und, &und.out))
		dir := newLabeling(n, true, out, in)
		sameCSR(t, "out", reference(out), decodeSide(dir, &dir.out))
		sameCSR(t, "in", reference(in), decodeSide(dir, &dir.in))
	}
}

// TestLabelWidths pins the packed entry layout: hub ids take the bytes of
// n−1, distances the bytes of their largest count of the side's unit, each
// side its own widths and unit.
func TestLabelWidths(t *testing.T) {
	for _, c := range []struct{ n, hubW int }{{1, 1}, {256, 1}, {257, 2}, {65536, 2}, {65537, 3}} {
		lists := make([][]Entry, c.n)
		lists[0] = []Entry{{Hub: graph.NodeID(c.n - 1), Dist: 3}}
		l := newLabeling(c.n, false, lists, nil)
		if l.out.hubW != c.hubW || l.out.width != c.hubW+1 {
			t.Errorf("n = %d: hub width %d, entry width %d; want %d and %d", c.n, l.out.hubW, l.out.width, c.hubW, c.hubW+1)
		}
		sameCSR(t, "hub width", csr{offsets: l.out.offsets, entries: lists[0]}, decodeSide(l, &l.out))
	}

	// A zero-weight cluster, as the hub-label fuzz target builds: every
	// distance is 0 and takes no bytes.
	inf := math.Inf(1)
	zero, err := buildSeq(newArcGraph([][]float64{{inf, 0, 0}, {0, inf, 0}, {0, 0, inf}}))
	if err != nil {
		t.Fatal(err)
	}
	if zero.out.width != zero.out.hubW {
		t.Errorf("zero-weight cluster: %d distance bytes, want 0", zero.out.width-zero.out.hubW)
	}
	for _, e := range decodeSide(zero, &zero.out).entries {
		if e.Dist != 0 {
			t.Fatalf("zero-weight cluster: hub %d at distance %v", e.Hub, e.Dist)
		}
	}

	// Two sides, two widths: out's counts of 2 fit a byte, in's counts of
	// 1 need three; both read back exactly.
	out := [][]Entry{{{Hub: 0, Dist: 0}, {Hub: 2, Dist: 6}}, {{Hub: 1, Dist: 0}}, {{Hub: 2, Dist: 0}, {Hub: 0, Dist: 510}}}
	in := [][]Entry{{{Hub: 1, Dist: 2000001}, {Hub: 0, Dist: 0}}, {{Hub: 1, Dist: 0}}, {}}
	dir := newLabeling(3, true, out, in)
	if dir.out.width != 1+1 || dir.in.width != 1+3 || dir.out.shift != 1 || dir.in.shift != 0 {
		t.Errorf("directed: widths %d / %d, shifts %d / %d; want 2 / 4, 1 / 0", dir.out.width, dir.in.width, dir.out.shift, dir.in.shift)
	}
	byHub := func(a, b Entry) int { return cmp.Compare(a.Hub, b.Hub) }
	sameCSR(t, "out", csr{offsets: []int32{0, 2, 3, 5}, entries: slices.Concat(out[0], out[1], slices.SortedFunc(slices.Values(out[2]), byHub))}, decodeSide(dir, &dir.out))
	sameCSR(t, "in", csr{offsets: []int32{0, 2, 3, 3}, entries: slices.Concat(slices.SortedFunc(slices.Values(in[0]), byHub), in[1])}, decodeSide(dir, &dir.in))

	// An empty side maps nothing and reads empty labels.
	empty := newLabeling(3, true, out, make([][]Entry, 3))
	if len(empty.in.entries) != 0 || empty.in.bytes() != 4*4 {
		t.Errorf("empty side: %d entry bytes, size %d; want 0 and the offsets' 16", len(empty.in.entries), empty.in.bytes())
	}
	if got, err := empty.InLabel(2, nil); err != nil || len(got) != 0 {
		t.Errorf("empty side: InLabel read %v, %v", got, err)
	}

	if testing.Short() || raceEnabled {
		return
	}
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 2006, Nodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(road)
	if err != nil {
		t.Fatal(err)
	}
	if l.out.hubW != 2 || l.out.width != 2+6 || l.out.shift != 0 {
		t.Errorf("road-20K: hub width %d, entry width %d, shift %d; want 2, 8 and 0 (the unit is the quantum)", l.out.hubW, l.out.width, l.out.shift)
	}
}

// TestBuildOptDeterminism is the parallel-build property test: for every
// worker count the batched build must produce labels bit-identical to the
// sequential build, on road and grid topologies, undirected and directed.
// Run under -race this also exercises the worker pool for data races.
func TestBuildOptDeterminism(t *testing.T) {
	graphs := testGraphs(t)
	for _, name := range []string{"road", "grid"} {
		g := graphs[name]
		seq, err := buildSeq(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			t.Run(name, func(t *testing.T) {
				par, st, err := BuildOpt(g, BuildOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				sameLabeling(t, seq, par)
				t.Logf("%d workers: %d entries, %d resweeps, %d visits", workers, par.Entries(), st.Resweeps, st.Visits)
				if st.Workers != workers {
					t.Fatalf("stats report %d workers, want %d", st.Workers, workers)
				}
				if st.Landmarks != g.NumNodes() || st.Visits == 0 {
					t.Fatalf("implausible stats: %+v", st)
				}
				if workers > 1 && st.Batches == 0 {
					t.Fatalf("batched build reports no batches: %+v", st)
				}
				if st.Wall <= 0 {
					t.Fatalf("no wall time recorded: %+v", st)
				}
			})
		}
	}
	d := testDigraph(t, 21)
	seq, err := buildSeq(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run("digraph", func(t *testing.T) {
			par, st, err := BuildOpt(d, BuildOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sameLabeling(t, seq, par)
			t.Logf("%d workers: %d entries, %d resweeps, %d visits", workers, par.Entries(), st.Resweeps, st.Visits)
		})
	}
}

// TestBuildOptNegativeWorkers pins how a negative count resolves —
// GOMAXPROCS, but the sequential build below three CPUs, where two workers
// lose to it; an explicit count is never second-guessed — and that
// BuildStats.Workers reports what ran, with the sequential labels either way.
func TestBuildOptNegativeWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, workers, want int }{
		{1, -1, 1}, {2, -1, 1}, {3, -1, 3}, {8, -1, 8},
		{2, 2, 2}, {1, 4, 4}, {8, 0, 1}, {8, 1, 1},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := (BuildOptions{Workers: c.workers}).workers(); got != c.want {
			t.Errorf("GOMAXPROCS %d, Workers %d: resolved to %d workers, want %d", c.procs, c.workers, got, c.want)
		}
	}

	g := testGraphs(t)["grid"]
	seq, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		procs, workers int
		batched        bool
	}{{2, -1, false}, {2, 2, true}, {4, -1, true}} {
		runtime.GOMAXPROCS(c.procs)
		par, st, err := BuildOpt(g, BuildOptions{Workers: c.workers})
		if err != nil {
			t.Fatal(err)
		}
		if want := (BuildOptions{Workers: c.workers}).workers(); st.Workers != want || (st.Batches > 0) != c.batched {
			t.Fatalf("GOMAXPROCS %d, Workers %d: stats report %d workers, %d batches; want %d workers, batched %v",
				c.procs, c.workers, st.Workers, st.Batches, want, c.batched)
		}
		sameLabeling(t, seq, par)
	}
}

// TestBuildOptTinyGraph exercises the batch schedule on graphs smaller
// than one batch.
func TestBuildOptTinyGraph(t *testing.T) {
	b := graph.NewBuilder(3)
	if err := b.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 2, 2); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := BuildOpt(g, BuildOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameLabeling(t, seq, par)
}

// TestBuildOptBrite covers the scale-free topology too (not part of the
// bit-identity matrix above, but the batch merge must hold on hub-heavy
// graphs where within-batch coverage is the common case).
func TestBuildOptBrite(t *testing.T) {
	g, err := gen.Brite(gen.BriteConfig{Seed: 12, Nodes: 400, AvgDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := BuildOpt(g, BuildOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sameLabeling(t, seq, par)
}

// replayFill eliminates peeled, in order, on a set-based model of g's
// undirected graph, independent of eliminate's sorted slices. It returns the
// largest degree a node had at its elimination, the fill edges created and
// the graph that is left.
func replayFill(t *testing.T, g graph.Access, peeled []graph.NodeID) (maxDegree, fill int, rest []map[graph.NodeID]bool) {
	t.Helper()
	nbr, err := undirectedAdjacency(g, g.In())
	if err != nil {
		t.Fatal(err)
	}
	rest = make([]map[graph.NodeID]bool, len(nbr))
	for v, a := range nbr {
		rest[v] = make(map[graph.NodeID]bool, len(a))
		for _, u := range a {
			rest[v][u] = true
		}
	}
	for _, v := range peeled {
		maxDegree = max(maxDegree, len(rest[v]))
		for u := range rest[v] {
			delete(rest[u], v)
			for w := range rest[v] {
				if w != u && !rest[u][w] {
					rest[u][w] = true
					fill++
				}
			}
		}
		rest[v] = nil
	}
	return maxDegree, fill / 2, rest
}

// TestLandmarkOrderLabelSizes pins what the landmark order is for: the size
// of the labels, a deterministic count. The exact entries of the 20K road map
// every benchmark builds; on BRITE and both grids no more entries than the
// sampled-centrality order alone produced (PR 25's counts); and on BRITE a
// bound on the fill, which is what elimCap buys — uncapped, the elimination
// joins the neighbourhoods of a scale-free graph's hubs into cliques, took
// 6 s to order 10K nodes and doubled the labels. The road labeling's
// fingerprint is pinned too, and the batched build must reproduce it bit for
// bit at every worker count.
func TestLandmarkOrderLabelSizes(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds four 10K-20K-node labelings to read deterministic counters")
	}
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 2006, Nodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	brite, err := gen.Brite(gen.BriteConfig{Seed: 7, Nodes: 10000, AvgDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	grid4, err := gen.Grid(gen.GridConfig{Seed: 7, Nodes: 10000, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	grid6, err := gen.Grid(gen.GridConfig{Seed: 7, Nodes: 10000, Degree: 6})
	if err != nil {
		t.Fatal(err)
	}
	var seq *Labeling
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		entries int
		exact   bool
	}{
		{"road-20K", road, 1180199, true},
		{"brite-10K", brite, 481246, false},
		{"grid4-10K", grid4, 1046459, false},
		{"grid6-10K", grid6, 2755161, false},
	} {
		l, st, err := BuildOpt(c.g, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d entries (%.1f a node), %d visits", c.name, l.Entries(), l.AverageLabelSize(), st.Visits)
		if l.Entries() > c.entries || c.exact && l.Entries() != c.entries {
			t.Errorf("%s: %d label entries, pinned %d (exact: %v)", c.name, l.Entries(), c.entries, c.exact)
		}
		if c.g == road {
			seq = l
			if st.Visits != 1275703 || st.Pruned != 95504 {
				t.Errorf("road-20K: %d visits, %d pruned; pinned 1275703 and 95504", st.Visits, st.Pruned)
			}
		}
	}
	if got, want := fingerprint(seq, road.LogQuantum()), "1fab447476dbcc996012ba480e2d0a8e4834035b1bfe9ec5e1d26975db36d810"; got != want {
		t.Errorf("road-20K: labeling fingerprint %s, pinned %s", got, want)
	}
	for _, workers := range []int{2, 4, 8} {
		par, st, err := BuildOpt(road, BuildOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("road-20K, %d workers: %d resweeps, %d visits", workers, st.Resweeps, st.Visits)
		sameLabeling(t, seq, par)
	}

	nbr, err := undirectedAdjacency(brite, brite.In())
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, a := range nbr {
		edges += len(a)
	}
	edges /= 2
	_, peeled := eliminate(nbr)
	maxDegree, fill, rest := replayFill(t, brite, peeled)
	t.Logf("brite-10K: %d of %d nodes peeled, %d edges, %d fill edges, largest eliminated degree %d",
		len(peeled), len(nbr), edges, fill, maxDegree)
	if maxDegree > elimCap {
		t.Errorf("a node of fill-degree %d was eliminated; the cap is %d", maxDegree, elimCap)
	}
	if fill > 3*edges {
		t.Errorf("the elimination created %d fill edges on a graph of %d edges, more than three times over", fill, edges)
	}
	for v, a := range nbr {
		if len(a) != len(rest[v]) {
			t.Fatalf("node %d: eliminate left %d neighbours, the replay %d", v, len(a), len(rest[v]))
		}
		for _, u := range a {
			if !rest[v][u] {
				t.Fatalf("node %d: eliminate left neighbour %d, the replay did not", v, u)
			}
		}
	}
}

// BenchmarkLabelFetch prices the decode of a packed label: OutLabel on the
// road-20K labeling over 4 096 seeded random nodes an op, reported as
// ns/label beside entries/label.
func BenchmarkLabelFetch(b *testing.B) {
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 2006, Nodes: 20000})
	if err != nil {
		b.Fatal(err)
	}
	l, err := buildSeq(road)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(48))
	nodes := make([]graph.NodeID, 4096)
	for i := range nodes {
		nodes[i] = graph.NodeID(rng.Intn(l.NumNodes()))
	}
	var buf []Entry
	entries := 0
	b.ResetTimer()
	for range b.N {
		for _, v := range nodes {
			if buf, err = l.OutLabel(v, buf); err != nil {
				b.Fatal(err)
			}
			entries += len(buf)
		}
	}
	labels := float64(b.N) * float64(len(nodes))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/labels, "ns/label")
	b.ReportMetric(float64(entries)/labels, "entries/label")
}

package storage_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"graphrnn/internal/core"
	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/hublabel"
	"graphrnn/internal/points"
	"graphrnn/internal/storage"
)

// fileSum hashes every page of f in page order.
func fileSum(t *testing.T, f storage.PagedFile) string {
	t.Helper()
	h := sha256.New()
	buf := make([]byte, f.PageSize())
	for p := 0; p < f.NumPages(); p++ {
		if err := f.Read(storage.PageID(p), buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinAdjacency packs g in order (nil: BFS) into pages of pageSize bytes
// and holds the store's page count and the sha256 over every node's
// (page i32, slot u16), node order, to the pinned ones.
func pinAdjacency(t *testing.T, name string, g *graph.Graph, pageSize int, order []graph.NodeID, pages int, refs string) {
	t.Helper()
	ds, err := storage.BuildDiskStore(g, storage.NewMemFile(pageSize), 4, order)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := sha256.New()
	var b [6]byte
	for _, ref := range ds.Index() {
		binary.LittleEndian.PutUint32(b[0:], uint32(ref.Page))
		binary.LittleEndian.PutUint16(b[4:], ref.Slot)
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); ds.NumPages() != pages || got != refs {
		t.Errorf("%s: %d pages, refs %s; pinned %d pages, refs %s", name, ds.NumPages(), got, pages, refs)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPagedLayoutPinned pins where every record of the four paged files
// lands: the (page, slot) of each node's adjacency list, and the bytes of
// the label pages, of a materialization's list pages and of an edge-point
// file. The pages live only as long as their process, but their layout
// decides which page a read faults, so every page-transfer count the
// experiments report (internal/exp's repro.golden) follows it: a change to
// the page format, the writer or the pair codec that moves a record or a
// byte fails here, where the cause is plain, before it moves a count.
func TestPagedLayoutPinned(t *testing.T) {
	road, err := gen.RoadNetwork(gen.RoadConfig{Seed: 2006, Nodes: 20000})
	if err != nil {
		t.Fatal(err)
	}
	brite, err := gen.Brite(gen.BriteConfig{Seed: 7, Nodes: 20000, AvgDegree: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		pageSize int
		pages    int
		refs     string // sha256 over every node's (page i32, slot u16), node order
	}{
		{"road-20K/256", road, 256, 3726, "4e7353216372edbe7be92a000dbf3d79c4f2b9fd1c43d657d7f6c2ced38fa283"},
		{"road-20K/1024", road, 1024, 871, "137cf251136f50d6749b589a59dcaba60b0af9cc8abffc1f21b5793a70aa3357"},
		{"road-20K/4096", road, 4096, 214, "2ed6da32e81a640e25cd77c251b85383ccb20dbc36589311983d19dbc16aaa64"},
		{"brite-20K/256", brite, 256, 5520, "ad266820046f880e50f83d162b4a8819a273147af10bc17b1c56f48124280d9d"},
		{"brite-20K/1024", brite, 1024, 1248, "13369194b1b436bb812bdb6d990759ae68e57eafc9fe41b3f3cbac8372b5e9b9"},
		{"brite-20K/4096", brite, 4096, 306, "306d69434040d70526fae155f51fe8df4d6b402c5f2adeaa0d52778d3ce19501"},
	} {
		pinAdjacency(t, tc.name, tc.g, tc.pageSize, nil, tc.pages, tc.refs)
	}
	// The clustered pages rnnserver serves: road-20K's connected balls, and
	// BRITE-20K, whose hubs (lists past a quarter page) keep it in BFS
	// order — the refs of the brite-20K/4096 row above.
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		pages int
		refs  string
	}{
		{"road-20K/4096/clustered", road, 214, "b0faa5e948e912cb012d4d4fb129cd8a0ae8e44aece72749b59ac738e238695f"},
		{"brite-20K/4096/clustered", brite, 306, "306d69434040d70526fae155f51fe8df4d6b402c5f2adeaa0d52778d3ce19501"},
	} {
		pinAdjacency(t, tc.name, tc.g, 4096, storage.ClusteredOrder(tc.g, 4096), tc.pages, tc.refs)
	}

	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: 7, Nodes: 3000})
	if err != nil {
		t.Fatal(err)
	}
	lab, _, err := hublabel.BuildOpt(g, hublabel.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		pageSize int
		pages    int
		sum      string
	}{
		{"labels/raw/4096", 4096, 153, "9a2176016a618ece4d36c63b7039a7d388fa547000db1934ce48cd25a113a5f7"},
		{"labels/raw/512", 512, 1224, "9a2176016a618ece4d36c63b7039a7d388fa547000db1934ce48cd25a113a5f7"},
	} {
		f := storage.NewMemFile(tc.pageSize)
		s, err := hublabel.NewStore(lab, f, storage.NewBufferPool(4).Attach("", f, 0))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fileSum(t, f); f.NumPages() != tc.pages || got != tc.sum {
			t.Errorf("%s: %d pages, sha256 %s; pinned %d pages, sha256 %s", tc.name, f.NumPages(), got, tc.pages, tc.sum)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(11))
	ns, err := gen.PlaceNodePoints(rng, g.NumNodes(), 150)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		pageSize  int
		listPages int
		sum       string
	}{
		{"mat/4096", 4096, 39, "699ef63e05b9625dc5a225947520800fbb3b962d2bbb12ba6f363e3941681708"},
		{"mat/512", 512, 318, "a7c091e6abfb1ab2d638a709fa5f5b8e60d9176cd755ea10f16fd5c04de50629"},
	} {
		lists := storage.NewMemFile(tc.pageSize)
		bm := storage.NewBufferPool(8).Attach("", lists, 0)
		mat, err := core.NewSearcher(g).MatBuildBuffer(core.PointSet{Node: ns}, 3, lists, bm, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := fileSum(t, lists); lists.NumPages() != tc.listPages || got != tc.sum {
			t.Errorf("%s: %d list pages, sha256 %s; pinned %d pages, sha256 %s",
				tc.name, lists.NumPages(), got, tc.listPages, tc.sum)
		}
		if err := mat.Close(); err != nil {
			t.Fatal(err)
		}
	}

	es, err := gen.PlaceEdgePoints(rng, gen.Edges(g), 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pageSize, pages int
		sum             string
	}{
		{4096, 2, "f1e2c7bcb3449947091d68f9e81e72188326557af48eaf1aa9eeaa3f213d5ff7"},
		{256, 29, "ae69f4912c42db23ded35530a46575478a56e5acb5d59b8567af928610149b7b"},
	} {
		f := storage.NewMemFile(tc.pageSize)
		paged, err := points.NewPagedEdgeSetBuffer(es, f, storage.NewBufferPool(4).Attach("", f, 0))
		if err != nil {
			t.Fatal(err)
		}
		if got := fileSum(t, f); f.NumPages() != tc.pages || got != tc.sum {
			t.Errorf("edgepoints/%d: %d pages, sha256 %s; pinned %d pages, sha256 %s", tc.pageSize, f.NumPages(), got, tc.pages, tc.sum)
		}
		if err := paged.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

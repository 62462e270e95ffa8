package graphrnn_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"graphrnn"
	"graphrnn/internal/core"
	"graphrnn/internal/hublabel"
)

// lifetimeWorld is one fresh memory-served DB with a node- and an
// edge-resident point set: each step of the leak table runs in its own, so
// the DB.Close that ends a step judges that step alone.
type lifetimeWorld struct {
	db    *graphrnn.DB
	nodes *graphrnn.NodePoints
	edges *graphrnn.EdgePoints
}

func openLifetimeWorld(t *testing.T, g *graphrnn.Graph) lifetimeWorld {
	t.Helper()
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := db.PlaceRandomNodePoints(7, 12)
	if err != nil {
		t.Fatal(err)
	}
	edges, err := db.PlaceRandomEdgePoints(8, 12)
	if err != nil {
		t.Fatal(err)
	}
	return lifetimeWorld{db: db, nodes: nodes, edges: edges}
}

// opener attaches one substrate in w, or is refused.
type opener func(w lifetimeWorld) (io.Closer, error)

// TestTenantLifetimes is the leak table: every path that attaches a tenant
// to a DB's buffer pool — the disk-backed graph, both materializations and
// their reopening, the paged and the reopened hub-label index, a paged edge
// snapshot, the disk-backed shard engines with their materializations —
// detaches it again, on Close (twice) and on every refusal a caller can
// provoke, so that DB.Close, which fails on a tenant left in its pool,
// returns nil after each. A refused OpenMaterialization also takes back
// the journal it created.
func TestTenantLifetimes(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(31, 200)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// The saved files: materializations and a labeling of g, of a graph
	// with another node count, and edge points on a path over g's nodes,
	// most of whose edges g lacks.
	type persisted interface {
		SaveTo(path string) error
		io.Closer
	}
	save := func(g *graphrnn.Graph, name string, build func(w lifetimeWorld) (persisted, error)) string {
		w := openLifetimeWorld(t, g)
		s, err := build(w)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := s.SaveTo(path); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.db.Close(); err != nil {
			t.Errorf("saving %s: %v", name, err)
		}
		return path
	}
	saveMat := func(w lifetimeWorld) (persisted, error) {
		return w.db.MaterializeNodePoints(w.nodes, 2, nil)
	}
	saveEdgeMat := func(w lifetimeWorld) (persisted, error) {
		return w.db.MaterializeEdgePoints(w.edges, 2, nil)
	}
	saveHub := func(w lifetimeWorld) (persisted, error) {
		return w.db.BuildHubLabelIndex(w.nodes, 2, nil)
	}
	other := buildLineGraph(t, 40)
	matFile, hubFile := save(g, "g.mat", saveMat), save(g, "g.hub", saveHub)
	otherMat, otherHub := save(other, "other.mat", saveMat), save(other, "other.hub", saveHub)
	edgeMat, pathMat := save(g, "g-edges.mat", saveEdgeMat), save(buildLineGraph(t, g.NumNodes()), "path-edges.mat", saveEdgeMat)

	openMat := func(path string) opener {
		return func(w lifetimeWorld) (io.Closer, error) { return w.db.OpenMaterialization(path, nil) }
	}
	openHub := func(path string) opener {
		return func(w lifetimeWorld) (io.Closer, error) { return w.db.OpenHubLabelIndex(w.nodes, 2, path, nil) }
	}
	// damaged returns the refusals a damaged copy of a saved file provokes:
	// the file truncated at every page boundary, and headers declaring a
	// page above the 65 535-byte limit and one too small for a record.
	damaged := func(name, path string, pageSizeAt int, open func(string) opener) map[string]opener {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pageSize := int(binary.LittleEndian.Uint32(raw[pageSizeAt:]))
		out := map[string]opener{}
		add := func(tag string, b []byte) {
			p := filepath.Join(dir, name+"-"+tag)
			if err := os.WriteFile(p, b, 0o644); err != nil {
				t.Fatal(err)
			}
			out[name+" "+tag] = open(p)
		}
		for end := 0; end < len(raw); end += pageSize {
			add(fmt.Sprintf("truncated@%d", end), raw[:end])
		}
		for _, ps := range []uint32{65536, 8} {
			b := bytes.Clone(raw)
			binary.LittleEndian.PutUint32(b[pageSizeAt:], ps)
			add(fmt.Sprintf("pagesize%d", ps), b)
		}
		if len(out) < 4 {
			t.Fatalf("%s: only %d damaged copies; the file has too few pages to exercise", name, len(out))
		}
		return out
	}
	merge := func(ms ...map[string]opener) map[string]opener {
		out := map[string]opener{}
		for _, m := range ms {
			for k, v := range m {
				out[k] = v
			}
		}
		return out
	}
	hugeK := func(build func(w lifetimeWorld, maxK int) (io.Closer, error)) map[string]opener {
		out := map[string]opener{}
		for _, k := range []int{1 << 62, math.MaxInt} {
			out[fmt.Sprintf("maxK=%d", k)] = func(w lifetimeWorld) (io.Closer, error) { return build(w, k) }
		}
		return out
	}

	for _, row := range []struct {
		name     string
		build    opener
		refusals map[string]opener
	}{
		{"Open/DiskBacked", func(lifetimeWorld) (io.Closer, error) {
			return graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 8})
		}, nil},
		{"MaterializeNodePoints", func(w lifetimeWorld) (io.Closer, error) {
			return w.db.MaterializeNodePoints(w.nodes, 2, nil)
		}, hugeK(func(w lifetimeWorld, k int) (io.Closer, error) { return w.db.MaterializeNodePoints(w.nodes, k, nil) })},
		{"MaterializeEdgePoints", func(w lifetimeWorld) (io.Closer, error) {
			return w.db.MaterializeEdgePoints(w.edges, 2, nil)
		}, hugeK(func(w lifetimeWorld, k int) (io.Closer, error) { return w.db.MaterializeEdgePoints(w.edges, k, nil) })},
		{"OpenMaterialization", openMat(matFile), merge(
			damaged("mat", matFile, core.MatFileHeader.PageSizeAt, openMat),
			damaged("edgemat", edgeMat, core.MatFileHeader.PageSizeAt, openMat),
			map[string]opener{"another graph": openMat(otherMat), "edges the graph lacks": openMat(pathMat)})},
		{"BuildHubLabelIndex/DiskBacked", func(w lifetimeWorld) (io.Closer, error) {
			return w.db.BuildHubLabelIndex(w.nodes, 2, &graphrnn.HubLabelOptions{DiskBacked: true})
		}, nil},
		{"OpenHubLabelIndex", openHub(hubFile), merge(
			damaged("hub", hubFile, hublabel.FileHeader.PageSizeAt, openHub),
			map[string]opener{"another graph": openHub(otherHub)})},
		{"EdgePoints.Paged", func(w lifetimeWorld) (io.Closer, error) {
			return w.edges.Paged(4)
		}, map[string]opener{"an edge crowded past a page": func(w lifetimeWorld) (io.Closer, error) {
			crowded := w.db.NewEdgePoints()
			var u, v graphrnn.NodeID
			var wt float64
			g.Edges(func(a, b graphrnn.NodeID, x float64) { u, v, wt = a, b, x })
			for i := range 2048 {
				if _, err := crowded.Place(u, v, wt*float64(i)/2048); err != nil {
					t.Fatal(err)
				}
			}
			return crowded.Paged(4)
		}}},
		{"Shard/DiskBacked+MatK", func(w lifetimeWorld) (io.Closer, error) {
			return w.db.Shard(w.nodes, &graphrnn.ShardOptions{Shards: 2, DiskBacked: true, MatK: 2})
		}, hugeK(func(w lifetimeWorld, k int) (io.Closer, error) {
			return w.db.Shard(w.nodes, &graphrnn.ShardOptions{Shards: 2, DiskBacked: true, MatK: k})
		})},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := openLifetimeWorld(t, g)
			c, err := row.build(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
			if err := w.db.Close(); err != nil {
				t.Errorf("DB.Close after Close: %v", err)
			}
			for name, refuse := range row.refusals {
				w := openLifetimeWorld(t, g)
				if c, err := refuse(w); err == nil {
					c.Close()
					t.Errorf("%s: accepted", name)
				}
				if err := w.db.Close(); err != nil {
					t.Errorf("DB.Close after the %s refusal: %v", name, err)
				}
				// Only the successful open of matFile keeps a journal.
				journals, _ := filepath.Glob(filepath.Join(dir, "*.journal"))
				for _, j := range journals {
					if j != matFile+".journal" {
						t.Errorf("%s: the refused open left %s behind", name, filepath.Base(j))
						os.Remove(j)
					}
				}
			}
		})
	}
}

// TestOpenMaterializationRefusalKeepsJournal: a refused OpenMaterialization
// removes the journal it created, and leaves one that was already there —
// it may hold a pending operation — byte for byte as it found it.
func TestOpenMaterializationRefusalKeepsJournal(t *testing.T) {
	small, big := buildLineGraph(t, 40), buildLineGraph(t, 41)
	dir := t.TempDir()
	path := filepath.Join(dir, "small.mat")
	w := openLifetimeWorld(t, small)
	mat, err := w.db.MaterializeNodePoints(w.nodes, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mat.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	jpath := path + ".journal"

	// Created here: gone after the refusal.
	other, err := graphrnn.Open(big, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.OpenMaterialization(path, nil); err == nil {
		t.Fatal("a file of 40 nodes opened over a graph of 41")
	}
	if _, err := os.Stat(jpath); !os.IsNotExist(err) {
		t.Fatalf("the refused open left its journal behind (stat: %v)", err)
	}

	// Already there: untouched by the refusal.
	reopened, err := w.db.OpenMaterialization(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatalf("a successful open kept no journal: %v", err)
	}
	if _, err := other.OpenMaterialization(path, nil); err == nil {
		t.Fatal("a file of 40 nodes opened over a graph of 41")
	}
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatalf("the refused open removed a journal it did not create: %v", err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the refused open changed a journal it did not create")
	}
	if err := mat.Close(); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*graphrnn.DB{w.db, other} {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

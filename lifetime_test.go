package graphrnn_test

import (
	"fmt"
	"io"
	"math"
	"testing"

	"graphrnn"
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
// to a DB's buffer pool — the disk-backed graph, both materializations, the
// paged hub-label index, a paged edge snapshot, the disk-backed shard
// engines with their materializations — detaches it again, on Close (twice)
// and on every refusal a caller can provoke, so that DB.Close, which fails
// on a tenant left in its pool, returns nil after each.
func TestTenantLifetimes(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(31, 200)
	if err != nil {
		t.Fatal(err)
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
		{"BuildHubLabelIndex/DiskBacked", func(w lifetimeWorld) (io.Closer, error) {
			return w.db.BuildHubLabelIndex(w.nodes, 2, &graphrnn.HubLabelOptions{DiskBacked: true})
		}, nil},
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
			}
		})
	}
}

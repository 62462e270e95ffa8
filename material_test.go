package graphrnn

import "testing"

// TestMaterializeReadsNoGraphPages: the all-NN build runs over the
// in-memory graph, so on a disk-backed DB with a cold pool it leaves the
// "graph" tenant unread, hits included, and builds every list entry for
// entry as a memory DB does — on a road map, and on a unit-weight grid,
// where distance ties are the rule.
func TestMaterializeReadsNoGraphPages(t *testing.T) {
	road, err := GenerateRoadNetwork(71, 3000)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := GenerateGrid(72, 2500, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{{"road", road}, {"grid", grid}} {
		t.Run(c.name, func(t *testing.T) {
			build := func(db *DB) (node, edge *Materialization) {
				t.Helper()
				nps, err := db.PlaceRandomNodePoints(7, 30)
				if err != nil {
					t.Fatal(err)
				}
				eps, err := db.PlaceRandomEdgePoints(8, 30)
				if err != nil {
					t.Fatal(err)
				}
				if err := db.DropCache(); err != nil {
					t.Fatal(err)
				}
				db.BufferPool().ResetStats()
				if node, err = db.MaterializeNodePoints(nps, 4, nil); err != nil {
					t.Fatal(err)
				}
				if edge, err = db.MaterializeEdgePoints(eps, 4, nil); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := node.Close(); err != nil {
						t.Error(err)
					}
					if err := edge.Close(); err != nil {
						t.Error(err)
					}
				})
				return node, edge
			}
			mem, err := Open(c.g, nil)
			if err != nil {
				t.Fatal(err)
			}
			disk, err := Open(c.g, &Options{DiskBacked: true, BufferPages: 32})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := disk.Close(); err != nil {
					t.Error(err)
				}
			})
			wantNode, wantEdge := build(mem)
			gotNode, gotEdge := build(disk)
			for _, tn := range disk.PoolStats().Tenants {
				if tn.Name == "graph" && (tn.Reads != 0 || tn.Hits != 0) {
					t.Fatalf("set-up read the graph through the pool: %d reads, %d hits", tn.Reads, tn.Hits)
				}
			}
			assertSameLists(t, gotNode, wantNode, c.name+" node points")
			assertSameLists(t, gotEdge, wantEdge, c.name+" edge points")
		})
	}
}

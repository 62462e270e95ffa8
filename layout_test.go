package graphrnn

import "testing"

// TestSessionsOnlyOnClusteredPages: a disk-backed DB's queries read through
// a storage.Session only when ClusteredLayout packed its pages as balls.
// BFS and random pages, and a graph whose hubs keep ClusteredLayout on BFS
// pages, read every list through the pool.
func TestSessionsOnlyOnClusteredPages(t *testing.T) {
	road, err := GenerateRoadNetwork(3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	brite, err := GenerateBrite(3, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		g        *Graph
		layout   Layout
		sessions bool
	}{
		{"road/bfs", road, BFSLayout(), false},
		{"road/random", road, RandomLayout(3), false},
		{"road/clustered", road, ClusteredLayout(), true},
		{"brite/clustered", brite, ClusteredLayout(), false},
	} {
		db, err := OpenWithLayout(tc.g, &Options{DiskBacked: true, BufferPages: 8}, tc.layout)
		if err != nil {
			t.Fatal(err)
		}
		if db.disk.Clustered != tc.sessions {
			t.Errorf("%s: Clustered = %v, want %v", tc.name, db.disk.Clustered, tc.sessions)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

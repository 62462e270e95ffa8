// The benchmark lives in package storage_test because it builds its graph
// with internal/gen, which imports storage through internal/points.
package storage_test

import (
	"math/rand"
	"testing"

	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/storage"
)

// BenchmarkDiskStoreAdjacency prices DiskStore.Adjacency the way range-NN
// probes call it: road-20K packed in BFS order into 4 KB pages behind a
// 32-page buffer, read over breadth-first balls of 200 nodes from 64
// seeded centres, 12 800 reads an op. It reports ns/read beside the
// buffer's hits/read and misses/read.
func BenchmarkDiskStoreAdjacency(b *testing.B) {
	const balls, ballSize = 64, 200
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: 2006, Nodes: 20000})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := storage.BuildDiskStore(g, storage.NewMemFile(storage.DefaultPageSize), 32, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()

	rng := rand.New(rand.NewSource(51))
	seen := make([]int, g.NumNodes()) // ball number that reached the node
	var reads []graph.NodeID
	var adj []graph.Edge
	for ball := 1; ball <= balls; ball++ {
		src := graph.NodeID(rng.Intn(g.NumNodes()))
		seen[src] = ball
		queue := []graph.NodeID{src}
		for head := 0; head < len(queue) && head < ballSize; head++ {
			n := queue[head]
			reads = append(reads, n)
			adj, _ = g.Adjacency(n, adj)
			for _, e := range adj {
				if seen[e.To] != ball {
					seen[e.To] = ball
					queue = append(queue, e.To)
				}
			}
		}
	}

	ds.Buffer().ResetStats()
	b.ResetTimer()
	for range b.N {
		for _, n := range reads {
			if adj, err = ds.Adjacency(n, adj); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	st := ds.Buffer().Stats()
	total := float64(b.N) * float64(len(reads))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/read")
	b.ReportMetric(float64(st.Hits)/total, "hits/read")
	b.ReportMetric(float64(st.Reads)/total, "misses/read")
}

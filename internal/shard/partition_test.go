package shard

import (
	"reflect"
	"testing"

	"graphrnn/internal/graph"
)

// gridGraph builds a w x h unit-weight grid.
func gridGraph(t *testing.T, w, h int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(w * h)
	id := func(x, y int) graph.NodeID { return graph.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				if err := b.AddEdge(id(x, y), id(x+1, y), 1); err != nil {
					t.Fatal(err)
				}
			}
			if y+1 < h {
				if err := b.AddEdge(id(x, y), id(x, y+1), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// twoComponents builds two disjoint paths.
func twoComponents(t *testing.T, n1, n2 int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n1 + n2)
	for i := 0; i < n1-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := n1; i < n1+n2-1; i++ {
		if err := b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func checkPartition(t *testing.T, g *graph.Graph, p *Partition) {
	t.Helper()
	n := g.NumNodes()
	if len(p.Owner) != n {
		t.Fatalf("Owner covers %d of %d nodes", len(p.Owner), n)
	}
	sizes := make([]int, p.Shards)
	for v := range n {
		s := p.ShardOf(graph.NodeID(v))
		if s < 0 || s >= p.Shards {
			t.Fatalf("node %d owned by out-of-range shard %d", v, s)
		}
		sizes[s]++
	}
	if !reflect.DeepEqual(sizes, p.Sizes) {
		t.Fatalf("Sizes %v, recount %v", p.Sizes, sizes)
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != n {
		t.Fatalf("sizes sum to %d, want %d", total, n)
	}
	// Cut edges recount.
	cut := 0
	g.ForEachEdge(func(u, v graph.NodeID, _ float64) {
		if p.Owner[u] != p.Owner[v] {
			cut++
		}
	})
	if cut != p.CutEdges {
		t.Fatalf("CutEdges %d, recount %d", p.CutEdges, cut)
	}
	// Halo: every halo node is foreign; ring 1 is complete.
	for s, halo := range p.Halo {
		seen := make(map[graph.NodeID]bool, len(halo))
		for i, h := range halo {
			if p.ShardOf(h) == s {
				t.Fatalf("shard %d halo contains owned node %d", s, h)
			}
			if i > 0 && halo[i-1] >= h {
				t.Fatalf("shard %d halo not ascending at %d", s, i)
			}
			seen[h] = true
		}
		if p.HaloDepth == 0 {
			continue
		}
		var adj []graph.Edge
		for v := range n {
			if p.ShardOf(graph.NodeID(v)) != s {
				continue
			}
			adj, _ = g.Adjacency(graph.NodeID(v), adj)
			for _, e := range adj {
				if p.ShardOf(e.To) != s && !seen[e.To] {
					t.Fatalf("shard %d halo misses border neighbor %d", s, e.To)
				}
			}
		}
	}
}

func TestCutGrid(t *testing.T) {
	g := gridGraph(t, 20, 20)
	for _, shards := range []int{1, 2, 4, 7} {
		p, err := Cut(g, shards, 2, 42)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkPartition(t, g, p)
		// Balance: regions within 3x of the mean on a connected grid.
		mean := g.NumNodes() / shards
		for s, sz := range p.Sizes {
			if sz == 0 {
				t.Errorf("shards=%d: shard %d empty", shards, s)
			}
			if shards > 1 && sz > 3*mean {
				t.Errorf("shards=%d: shard %d holds %d nodes (mean %d)", shards, s, sz, mean)
			}
		}
	}
}

func TestCutDeterministic(t *testing.T) {
	g := gridGraph(t, 15, 15)
	a, err := Cut(g, 4, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Sixteen cuts: a step ranging over a map draws one of a few orders at
	// random, so two runs alone often agree.
	for range 15 {
		b, err := Cut(g, 4, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatal("identical inputs produced different partitions")
		}
	}
	c, err := Cut(g, 4, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Owner, c.Owner) {
		t.Log("different seeds produced the same partition (possible, but suspicious on a grid)")
	}
}

func TestCutDisconnected(t *testing.T) {
	g := twoComponents(t, 60, 40)
	for _, shards := range []int{2, 3} {
		p, err := Cut(g, shards, 1, 1)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		checkPartition(t, g, p)
	}
}

func TestCutNoHalo(t *testing.T) {
	g := gridGraph(t, 10, 10)
	p, err := Cut(g, 3, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, g, p)
	for s, halo := range p.Halo {
		if len(halo) != 0 {
			t.Fatalf("haloDepth 0 built a halo for shard %d", s)
		}
	}
}

func TestCutHaloDepthWidensRing(t *testing.T) {
	g := gridGraph(t, 20, 20)
	p1, err := Cut(g, 2, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := Cut(g, 2, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := range 2 {
		if len(p3.Halo[s]) <= len(p1.Halo[s]) {
			t.Fatalf("shard %d: depth-3 halo (%d nodes) not wider than depth-1 (%d)",
				s, len(p3.Halo[s]), len(p1.Halo[s]))
		}
	}
}

func TestCutErrors(t *testing.T) {
	g := gridGraph(t, 3, 3)
	if _, err := Cut(g, 0, 1, 0); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := Cut(g, 10, 1, 0); err == nil {
		t.Error("more shards than nodes accepted")
	}
	if _, err := Cut(g, 2, -1, 0); err == nil {
		t.Error("negative halo depth accepted")
	}
}

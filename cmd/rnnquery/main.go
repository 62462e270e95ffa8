// Command rnnquery runs individual RkNN queries against a generated
// network through the declarative query API, printing the result set and
// the per-query work statistics of each algorithm side by side — a quick
// way to see the eager/lazy trade-offs of the paper on one query, and what
// the planner would pick on its own ("A"). pageReads counts the physical
// page reads of every buffer-pool tenant the query touched: adjacency pages
// and, for eager-M, K-NN list pages.
//
// Usage:
//
//	rnnquery [-family road|brite|grid] [-nodes N] [-density D] [-k K]
//	         [-queries N] [-seed N] [-algos A,E,EM,L,LP,BF]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"graphrnn"
)

func main() {
	var (
		family  = flag.String("family", "road", "network family: road, brite, grid")
		nodes   = flag.Int("nodes", 10000, "approximate node count")
		density = flag.Float64("density", 0.01, "data density |P|/|V|")
		k       = flag.Int("k", 1, "number of reverse nearest neighbors")
		queries = flag.Int("queries", 3, "number of queries to run")
		seed    = flag.Int64("seed", 1, "seed")
		algos   = flag.String("algos", "A,E,EM,L,LP", "comma-separated algorithms (A=auto, E, EM, L, LP, BF)")
	)
	flag.Parse()

	var (
		g   *graphrnn.Graph
		err error
	)
	switch *family {
	case "road":
		g, err = graphrnn.GenerateRoadNetwork(*seed, *nodes)
	case "brite":
		g, err = graphrnn.GenerateBrite(*seed, *nodes, 4)
	case "grid":
		g, err = graphrnn.GenerateGrid(*seed, *nodes, 4)
	default:
		fmt.Fprintf(os.Stderr, "unknown family %q\n", *family)
		os.Exit(2)
	}
	fail(err)
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true})
	fail(err)
	count := int(*density * float64(g.NumNodes()))
	if count < 2 {
		count = 2
	}
	ps, err := db.PlaceRandomNodePoints(*seed+1, count)
	fail(err)
	mat, err := db.MaterializeNodePoints(ps, maxInt(*k, 1), nil)
	fail(err)

	algoList := map[string]graphrnn.Algorithm{
		"A":  graphrnn.Auto(),
		"E":  graphrnn.Eager(),
		"EM": graphrnn.EagerM(mat),
		"L":  graphrnn.Lazy(),
		"LP": graphrnn.LazyEP(),
		"BF": graphrnn.BruteForce(),
	}
	var selected []graphrnn.Algorithm
	for _, name := range strings.Split(*algos, ",") {
		a, ok := algoList[strings.TrimSpace(name)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", name)
			os.Exit(2)
		}
		selected = append(selected, a)
	}

	fmt.Printf("%s network: |V|=%d |E|=%d, |P|=%d, k=%d\n\n",
		*family, g.NumNodes(), g.NumEdges(), ps.Len(), *k)
	pts := ps.Points()
	for qi := 0; qi < *queries && qi < len(pts); qi++ {
		qp := pts[qi]
		qnode, ok := ps.NodeOf(qp)
		if !ok {
			continue
		}
		fmt.Printf("query %d at node %d (point %d excluded):\n", qi, qnode, qp)
		for _, algo := range selected {
			db.BufferPool().ResetStats()
			res, err := db.Run(context.Background(), graphrnn.Query{
				Kind:      graphrnn.KindRNN,
				Target:    graphrnn.NodeLocation(qnode),
				K:         *k,
				Points:    ps.Excluding(qp),
				Algorithm: algo,
			})
			fail(err)
			io := db.PoolStats()
			name := algo.String()
			if algo == graphrnn.Auto() {
				name = fmt.Sprintf("auto>%s", res.Plan.Algorithm)
			}
			fmt.Printf("  %-12s -> %d results %v\n", name, len(res.Points), res.Points)
			fmt.Printf("               expanded=%d scanned=%d rangeNN=%d verify=%d matReads=%d pageReads=%d\n",
				res.Stats.NodesExpanded, res.Stats.NodesScanned, res.Stats.RangeNN,
				res.Stats.Verifications, res.Stats.MatReads, io.Reads)
		}
		fmt.Println()
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

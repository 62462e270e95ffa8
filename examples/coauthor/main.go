// Coauthorship example (the Table 1 scenario): ad-hoc RNN queries on a
// DBLP-style collaboration graph, where distance is the degree of
// separation (unit edge weights) and the point set is defined at query
// time by a predicate over author attributes.
//
// "Which authors with exactly two SIGMOD papers are, among that group,
// closest to me?" — the RNN set of an author q over the predicate-filtered
// point set contains the authors for whom q is the nearest group member.
// Because the point set is ad hoc, materialization is impossible and the
// eager/lazy trade-off of the paper's Table 1 appears: eager saves I/O,
// lazy saves CPU. The queries go through the declarative API with an
// explicit algorithm hint per run.
//
// Run with:
//
//	go run ./examples/coauthor
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"graphrnn"
)

func main() {
	ds, err := graphrnn.GenerateCoauthorship(2024, 0, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coauthorship graph: %d authors, %d collaboration edges (unit weights)\n\n",
		g.NumNodes(), g.NumEdges())

	for _, paperCount := range []int{0, 1, 2} {
		authors := ds.AuthorsWithVenueCount(0, paperCount)
		fmt.Printf("predicate: exactly %d papers in venue 0 -> %d matching authors\n",
			paperCount, len(authors))
		ps := db.NewNodePoints()
		for _, n := range authors {
			if _, err := ps.Place(n); err != nil {
				log.Fatal(err)
			}
		}
		// Query from the first matching author's position.
		qp := ps.Points()[0]
		qnode, ok := ps.NodeOf(qp)
		if !ok {
			log.Fatalf("point %d vanished from its own set", qp)
		}
		q := graphrnn.Query{
			Kind:   graphrnn.KindRNN,
			Target: graphrnn.NodeLocation(qnode),
			K:      1,
			Points: ps.Excluding(qp),
		}
		for _, algo := range []graphrnn.Algorithm{graphrnn.Eager(), graphrnn.Lazy()} {
			if err := db.DropCache(); err != nil {
				log.Fatal(err)
			}
			db.BufferPool().ResetStats()
			q.Algorithm = algo
			t0 := time.Now()
			res, err := db.Run(context.Background(), q)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-8s author %d has %2d reverse nearest colleagues  (pages: %3d, cpu: %v)\n",
				algo, qnode, len(res.Points), db.PoolStats().Reads, time.Since(t0).Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Println("Fewer matching authors mean larger expansions around the query —")
	fmt.Println("the selectivity effect of the paper's Table 1.")
}

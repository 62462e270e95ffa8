// P2P example (the Fig 1a scenario): a new peer joins an overlay network
// and asks which existing peers now have it as their nearest neighbor —
// those peers would redirect future requests to the newcomer, and the RNN
// set sizes its expected workload.
//
// The overlay is a BRITE-style scale-free topology (what the paper's P2P
// experiments use); peers occupy 1% of the routers. The example runs a
// R4NN query — the paper notes that Gnutella-style systems propagate
// queries to four neighbors — through the declarative API: once with the
// planner deciding (eager on this low-diameter topology), then with an
// explicit lazy hint to show why lazy is hopeless here ("exponential
// expansion"): it visits an order of magnitude more of the network.
//
// Run with:
//
//	go run ./examples/p2p
package main

import (
	"context"
	"fmt"
	"log"

	"graphrnn"
)

func main() {
	const (
		routers = 20000
		k       = 4
	)
	g, err := graphrnn.GenerateBrite(42, routers, 4)
	if err != nil {
		log.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 64})
	if err != nil {
		log.Fatal(err)
	}
	peers, err := db.PlaceRandomNodePoints(43, routers/100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overlay: %d routers, %d edges, %d peers\n\n", g.NumNodes(), g.NumEdges(), peers.Len())

	// The "new peer" joins at the location of an existing peer (whom we
	// exclude — it models the newcomer taking that position in the
	// overlay).
	newcomer := peers.Points()[0]
	joinAt, ok := peers.NodeOf(newcomer)
	if !ok {
		log.Fatalf("peer %d vanished from its own set", newcomer)
	}
	q := graphrnn.Query{
		Kind:   graphrnn.KindRNN,
		Target: graphrnn.NodeLocation(joinAt),
		K:      k,
		Points: peers.Excluding(newcomer),
	}

	for _, algo := range []graphrnn.Algorithm{graphrnn.Auto(), graphrnn.Lazy()} {
		db.BufferPool().ResetStats()
		q.Algorithm = algo
		res, err := db.Run(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		io := db.PoolStats()
		fmt.Printf("%-8s R%dNN at router %d: %d peers would adopt the newcomer\n",
			res.Plan.Algorithm, k, joinAt, len(res.Points))
		fmt.Printf("         nodes expanded: %6d   scanned by sub-queries: %7d   page reads: %d\n",
			res.Stats.NodesExpanded, res.Stats.NodesScanned, io.Reads)
	}

	fmt.Println("\nThe lazy algorithm expands most of the overlay: on low-diameter")
	fmt.Println("topologies every node is a few hops from everything, so discovered")
	fmt.Println("peers cannot prune the search (Section 6.1 of the paper, Fig 15).")
}

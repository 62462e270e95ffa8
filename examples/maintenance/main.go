// Maintenance example: atomic K-NN list maintenance under deadlines.
//
// A delivery platform tracks couriers on a road network and serves
// RkNN("which couriers would a new job at node q be nearest for") through
// the eager-M materialization. Couriers come and go constantly, so the
// K-NN lists are maintained incrementally (Figs 10-11 of the paper): the
// courier set is the unit of mutation, and its Insert / Remove repair every
// substrate built over it. Because maintenance runs inside the serving
// process, every operation carries a deadline. The repair's before-images
// make that safe: an operation that blows its deadline is rolled back to the
// pre-operation state instead of leaving the lists half-repaired, so the
// next query (and the next attempt) proceed as if it never started.
//
// Run with:
//
//	go run ./examples/maintenance
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"graphrnn"
)

func main() {
	g, err := graphrnn.GenerateRoadNetwork(42, 5000)
	if err != nil {
		log.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		log.Fatal(err)
	}
	couriers, err := db.PlaceRandomNodePoints(43, 50)
	if err != nil {
		log.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(couriers, 4, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road network: %d junctions, %d couriers, K-NN lists to k=4\n\n", g.NumNodes(), couriers.Len())

	// A courier appears, under a generous deadline: commits.
	free := freeNode(g, couriers)
	p, st, err := couriers.Insert(context.Background(), graphrnn.NodeLocation(free),
		&graphrnn.QueryOptions{Timeout: time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("courier %d signed on at junction %d (%d lists repaired, state %v)\n",
		p, free, st.MatReads, mat.RepairState())

	// An operation abandoned mid-repair — here a 1-node work budget, the
	// same mechanism a deadline uses — rolls back: the courier count and
	// every list are exactly as before, and the substrate stays queryable.
	before := couriers.Len()
	_, _, err = couriers.Insert(context.Background(), graphrnn.NodeLocation(freeNode(g, couriers)),
		&graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: 1}})
	switch {
	case err == nil:
		log.Fatal("expected the 1-node budget to abandon the repair")
	case !graphrnn.IsExecErr(err):
		log.Fatal(err)
	}
	fmt.Printf("abandoned sign-on rolled back: %v; couriers %d -> %d, state %v\n",
		err, before, couriers.Len(), mat.RepairState())
	res, err := db.Run(context.Background(), graphrnn.Query{
		Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(0), K: 2, Points: couriers,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query after the rollback: %d reverse-nearest couriers of junction 0 [%s]\n",
		len(res.Points), res.Plan.Algorithm)
}

func freeNode(g *graphrnn.Graph, ps *graphrnn.NodePoints) graphrnn.NodeID {
	for n := 0; n < g.NumNodes(); n++ {
		if _, taken := ps.PointAt(graphrnn.NodeID(n)); !taken {
			return graphrnn.NodeID(n)
		}
	}
	return -1
}

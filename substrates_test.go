package graphrnn_test

// Regression tests for the point set as the unit of mutation, written
// against the API the parent of this change already had (Place / Delete,
// the substrate constructors, Run, Plan): there, each of them fails — a
// mutation of the set repaired at most the substrate it was called on, and
// the planner kept one substrate slot per DB instead of per set. The one
// exception is TestPagedSnapshotPlansExpansion, which passes there too: it
// covers the path per-set substrates add to the planner, a view with no
// mutable set behind it.

import (
	"context"
	"testing"

	"graphrnn"
	"graphrnn/internal/oracle"
)

// bothSubstrates builds a 2K-road-like setting: a point set with a
// materialization and a hub-label index over it.
func bothSubstrates(t *testing.T, maxK int) (*graphrnn.DB, *graphrnn.NodePoints, map[string]graphrnn.Algorithm) {
	t.Helper()
	g, err := graphrnn.GenerateRoadNetwork(301, 2000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(302, 40)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, maxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, maxK, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close(); mat.Close() })
	return db, ps, map[string]graphrnn.Algorithm{
		"eager-M": graphrnn.EagerM(mat), "hub-label": graphrnn.HubLabel(idx), "auto": graphrnn.Auto(),
	}
}

func freeNodes(g *graphrnn.Graph, ps *graphrnn.NodePoints, count, stride int) []graphrnn.NodeID {
	var free []graphrnn.NodeID
	for n := 0; n < g.NumNodes() && len(free) < count; n += stride {
		if _, taken := ps.PointAt(graphrnn.NodeID(n)); !taken {
			free = append(free, graphrnn.NodeID(n))
		}
	}
	return free
}

// TestPlaceDeleteKeepSubstratesExact: raw Place / Delete on a set with both
// substrates built over it keep eager-M, hub-label and the auto plan
// exact (at the parent: eager-M answered 69 of 286 probes wrong after
// five raw Place calls, silently).
func TestPlaceDeleteKeepSubstratesExact(t *testing.T) {
	const maxK = 2
	db, ps, algos := bothSubstrates(t, maxK)
	agree := graphrnn.Agreement{Points: ps, Algos: algos, Ks: oracle.Depths(maxK)}
	graphrnn.CheckAgreement(t, agree)
	var placed []graphrnn.PointID
	for _, n := range freeNodes(db.Graph(), ps, 5, 131) {
		p, err := ps.Place(n)
		if err != nil {
			t.Fatal(err)
		}
		placed = append(placed, p)
	}
	graphrnn.CheckAgreement(t, agree)
	for _, p := range []graphrnn.PointID{placed[0], placed[3], ps.Points()[1]} {
		if err := ps.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	graphrnn.CheckAgreement(t, agree)
}

// TestDeleteThenInsertSameLiveCount: one delete and one insert leave the
// live count unchanged — the state the parent's count/sample staleness
// heuristic of the hub-label index could not see (16 of 286 hub-label
// answers wrong, hinted or auto-planned, with no error).
func TestDeleteThenInsertSameLiveCount(t *testing.T) {
	const maxK = 2
	db, ps, algos := bothSubstrates(t, maxK)
	before := ps.Len()
	if err := ps.Delete(ps.Points()[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Place(freeNodes(db.Graph(), ps, 1, 97)[0]); err != nil {
		t.Fatal(err)
	}
	if ps.Len() != before {
		t.Fatalf("live count %d, want %d", ps.Len(), before)
	}
	graphrnn.CheckAgreement(t, graphrnn.Agreement{Points: ps, Algos: algos, Ks: oracle.Depths(maxK)})
}

// TestEdgePlaceDeleteKeepMaterializationExact is the edge-resident half:
// the one substrate that residency allows follows raw Place / Delete.
func TestEdgePlaceDeleteKeepMaterializationExact(t *testing.T) {
	g, err := graphrnn.GenerateGrid(311, 144, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomEdgePoints(312, 14)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeEdgePoints(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mat.Close()
	type edge struct {
		u, v graphrnn.NodeID
		w    float64
	}
	var edges []edge
	g.Edges(func(u, v graphrnn.NodeID, w float64) { edges = append(edges, edge{u, v, w}) })
	for i := 0; i < 5; i++ {
		e := edges[(i*37+5)%len(edges)]
		if _, err := ps.Place(e.u, e.v, e.w*float64(i+1)/7); err != nil {
			t.Fatal(err)
		}
	}
	if err := ps.Delete(ps.Points()[3]); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []graphrnn.Algorithm{graphrnn.EagerM(mat), graphrnn.Auto()} {
		for n := 0; n < g.NumNodes(); n += 7 {
			for k := 1; k <= 2; k++ {
				target := graphrnn.NodeLocation(graphrnn.NodeID(n))
				want, err := db.Run(context.Background(), edgeRNNQuery(ps, target, k, graphrnn.BruteForce()))
				if err != nil {
					t.Fatal(err)
				}
				q := edgeRNNQuery(ps, target, k, algo)
				q.Strict = false
				got, err := db.Run(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if got.Plan.Algorithm.String() != "eager-M" || got.Plan.Fallback {
					t.Fatalf("planned %s, want eager-M without fallback", got.Plan.Explain())
				}
				if !samePoints(got.Points, want.Points) {
					t.Fatalf("%s at node %d k=%d: got %v, brute %v", algo, n, k, got.Points, want.Points)
				}
			}
		}
	}
}

// TestPagedSnapshotPlansExpansion: an immutable paged snapshot carries no
// substrates of its own — the set's materialization tracks the mutable set —
// so an auto-planned query over it runs plain expansion and still answers
// like brute force.
func TestPagedSnapshotPlansExpansion(t *testing.T) {
	g, err := graphrnn.GenerateGrid(331, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomEdgePoints(332, 10)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeEdgePoints(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mat.Close()
	paged, err := ps.Paged(8)
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	target := graphrnn.NodeLocation(7)
	want, err := db.Run(context.Background(), edgeRNNQuery(paged, target, 2, graphrnn.BruteForce()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Run(context.Background(), graphrnn.Query{Kind: graphrnn.KindRNN, Target: target, K: 2, Points: paged})
	if err != nil {
		t.Fatal(err)
	}
	if algo := got.Plan.Algorithm.String(); algo == "eager-M" || got.Plan.Fallback {
		t.Fatalf("planned %q over a paged snapshot", got.Plan.Explain())
	}
	if !samePoints(got.Points, want.Points) {
		t.Fatalf("got %v, brute %v", got.Points, want.Points)
	}
}

// TestPlannerSubstratesPerSet: substrates belong to the set they were built
// over, so a second hub-label index — over the sites — leaves rnn over the
// data set on its own index and puts bichromatic on the sites' (at the
// parent the one per-DB slot was evicted and rnn silently re-planned to
// lazy).
func TestPlannerSubstratesPerSet(t *testing.T) {
	g, err := graphrnn.GenerateRoadNetwork(321, 1000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(322, 40)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := db.PlaceRandomNodePoints(323, 8)
	if err != nil {
		t.Fatal(err)
	}
	dataIdx, err := db.BuildHubLabelIndex(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dataIdx.Close()
	siteIdx, err := db.BuildHubLabelIndex(sites, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer siteIdx.Close()

	const reason = ": attached hub-label index answers this shape by label intersection"
	rnn := graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(5), K: 2, Points: ps}
	bi := graphrnn.Query{Kind: graphrnn.KindBichromatic, Target: graphrnn.NodeLocation(5), K: 1, Points: ps, Sites: sites}
	for q, want := range map[*graphrnn.Query]string{&rnn: "rnn via hub-label" + reason, &bi: "bichromatic via hub-label" + reason} {
		pl, err := db.Plan(*q)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Explain() != want {
			t.Fatalf("planned %q, want %q", pl.Explain(), want)
		}
	}
	// Each plan resolved to the index over its own tracked set: the same
	// query hinted, strictly, with that index answers identically — and with
	// the other set's index it is rejected.
	for _, c := range []struct {
		q           graphrnn.Query
		own, others *graphrnn.HubLabelIndex
	}{{rnn, dataIdx, siteIdx}, {bi, siteIdx, dataIdx}} {
		auto, err := db.Run(context.Background(), c.q)
		if err != nil {
			t.Fatal(err)
		}
		hinted := c.q
		hinted.Algorithm, hinted.Strict = graphrnn.HubLabel(c.own), true
		own, err := db.Run(context.Background(), hinted)
		if err != nil {
			t.Fatal(err)
		}
		brute := c.q
		brute.Algorithm = graphrnn.BruteForce()
		want, err := db.Run(context.Background(), brute)
		if err != nil {
			t.Fatal(err)
		}
		if !samePoints(auto.Points, want.Points) || !samePoints(own.Points, want.Points) {
			t.Fatalf("%s: auto %v, hinted %v, brute %v", c.q.Kind, auto.Points, own.Points, want.Points)
		}
		hinted.Algorithm = graphrnn.HubLabel(c.others)
		if _, err := db.Run(context.Background(), hinted); err == nil {
			t.Fatalf("%s: strict hint with the other set's index was accepted", c.q.Kind)
		}
	}
	// Closing the data set's index walks rnn down its own chain and leaves
	// the sites' index where it was.
	if err := dataIdx.Close(); err != nil {
		t.Fatal(err)
	}
	if pl, _ := db.Plan(rnn); pl.Algorithm.String() == "hub-label" {
		t.Fatalf("rnn still planned %q after its index closed", pl.Explain())
	}
	if pl, _ := db.Plan(bi); pl.Explain() != "bichromatic via hub-label"+reason {
		t.Fatalf("bichromatic planned %q after the data set's index closed", pl.Explain())
	}
}

package hublabel

import (
	"context"
	"math/rand"
	"testing"

	"graphrnn/internal/exec"
	"graphrnn/internal/gen"
	"graphrnn/internal/graph"
	"graphrnn/internal/points"
)

// verifyEnv is a road network with a point set, indexed twice over one
// labeling: idx with the small maxK under test, wide with thresholds deep
// enough to answer every k the tests ask — the reference for k > idx.MaxK().
type verifyEnv struct {
	g         *graph.Graph
	ps        *points.NodeSet
	idx, wide *Index
}

func newVerifyEnv(t *testing.T) *verifyEnv {
	t.Helper()
	g, err := gen.RoadNetwork(gen.RoadConfig{Seed: 301, Nodes: 500})
	if err != nil {
		t.Fatal(err)
	}
	l, err := buildSeq(g)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := gen.PlaceNodePoints(rand.New(rand.NewSource(302)), g.NumNodes(), 50)
	if err != nil {
		t.Fatal(err)
	}
	e := &verifyEnv{g: g, ps: ps}
	if e.idx, err = NewIndex(l, 2, pointsOf(ps)); err != nil {
		t.Fatal(err)
	}
	if e.wide, err = NewIndex(l, 6, pointsOf(ps)); err != nil {
		t.Fatal(err)
	}
	return e
}

// verified returns {p : VerifyMember(query, k, p)} over every id of the
// index's id space plus ids outside it, which must answer false, not fail.
func verified(t *testing.T, idx *Index, query []graph.NodeID, k int) []points.PointID {
	t.Helper()
	var out []points.PointID
	for p := points.PointID(-2); int(p) < len(idx.nodes)+3; p++ {
		member, st, err := idx.VerifyMember(nil, query, k, p)
		if err != nil {
			t.Fatalf("VerifyMember(%v, k=%d, p=%d): %v", query, k, p, err)
		}
		if _, live := idx.NodeOf(p); !live && (member || st != (QueryStats{})) {
			t.Fatalf("id %d names no live point: member=%v stats=%+v", p, member, st)
		}
		if member {
			out = append(out, p)
		}
	}
	return out
}

// TestVerifyMember: the per-candidate test confirms exactly the members the
// set-at-a-time queries return — single node and route, k within the
// thresholds (threshold test) and beyond them (exact closer-count) — and
// keeps doing so after a delete; dead and out-of-range ids are no members.
func TestVerifyMember(t *testing.T) {
	e := newVerifyEnv(t)
	rng := rand.New(rand.NewSource(303))
	check := func(step string) {
		t.Helper()
		for trial := 0; trial < 25; trial++ {
			q := graph.NodeID(rng.Intn(e.g.NumNodes()))
			route := gen.RandomWalkRoute(rng, e.g, 1+rng.Intn(6))
			for _, k := range []int{1, 2, 3, 6} {
				want, _, err := e.wide.RkNNExec(nil, q, k, points.NoPoint)
				if err != nil {
					t.Fatal(err)
				}
				if got := verified(t, e.idx, []graph.NodeID{q}, k); !samePoints(got, want) {
					t.Fatalf("%s q=%d k=%d: verified %v, RkNN %v", step, q, k, got, want)
				}
				want, _, err = e.wide.ContinuousRkNNExec(nil, route, k, points.NoPoint)
				if err != nil {
					t.Fatal(err)
				}
				if got := verified(t, e.idx, route, k); !samePoints(got, want) {
					t.Fatalf("%s route %v k=%d: verified %v, ContinuousRkNN %v", step, route, k, got, want)
				}
			}
		}
	}
	check("built")
	for _, p := range e.ps.Points()[10:14] {
		for _, idx := range []*Index{e.idx, e.wide} {
			if _, err := idx.Delete(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("after deletes")

	if _, _, err := e.idx.VerifyMember(nil, nil, 1, 0); err == nil {
		t.Error("empty query accepted")
	}
	if _, _, err := e.idx.VerifyMember(nil, []graph.NodeID{0}, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, _, err := e.idx.VerifyMember(nil, []graph.NodeID{graph.NodeID(e.g.NumNodes())}, 1, 0); err == nil {
		t.Error("out-of-range query node accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.idx.VerifyMember(exec.New(ctx, exec.Budget{}, nil), []graph.NodeID{0}, 1, 0); !exec.IsExecErr(err) {
		t.Errorf("cancelled context: got %v, want a typed exec error", err)
	}
}

// TestHotPathAllocs pins the coordinator's per-candidate verify as
// allocation-free once the scratch is warm, on both membership paths.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the scratch sync.Pool sheds entries under the race detector")
	}
	e := newVerifyEnv(t)
	query := []graph.NodeID{7}
	live := e.ps.Points()
	for _, k := range []int{2, 5} {
		i := 0
		if got := testing.AllocsPerRun(200, func() {
			if _, _, err := e.idx.VerifyMember(nil, query, k, live[i%len(live)]); err != nil {
				t.Fatal(err)
			}
			i++
		}); got != 0 {
			t.Errorf("VerifyMember k=%d (maxK %d): %v allocs/op, want 0", k, e.idx.MaxK(), got)
		}
	}
}

package graphrnn

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"graphrnn/internal/graph"
	"graphrnn/internal/shard"
)

// shardOracleEnv builds a small graph with a boundary-heavy point set:
// every node adjacent to a cut edge of the reference partition gets a
// point (the placements most likely to expose lost members at region
// borders), plus a scatter of random interior points.
func shardOracleEnv(t testing.TB, family string, nodes int, shards int, seed int64) (*DB, *NodePoints) {
	t.Helper()
	var g *Graph
	var err error
	switch family {
	case "road":
		g, err = GenerateRoadNetwork(seed, nodes)
	case "grid":
		g, err = GenerateGrid(seed, nodes, 2.5)
	default:
		t.Fatalf("unknown family %q", family)
	}
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	part, err := shard.Cut(g.g, shards, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	ps := db.NewNodePoints()
	placed := make(map[NodeID]bool)
	place := func(n NodeID) {
		if !placed[n] {
			placed[n] = true
			if _, err := ps.Place(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	g.g.ForEachEdge(func(u, v graph.NodeID, _ float64) {
		if part.Owner[u] != part.Owner[v] {
			place(NodeID(u))
			place(NodeID(v))
		}
	})
	rng := newSeededRand(seed + 1)
	for i := 0; i < nodes/20; i++ {
		place(NodeID(rng.Intn(g.NumNodes())))
	}
	if ps.Len() == 0 {
		place(0)
	}
	return db, ps
}

// TestShardedOracle is the cross-shard correctness property: scatter-
// gather answers equal unsharded engine answers — same members, same
// order — across topologies, shard counts, halo depths and query kinds,
// with boundary-heavy point placements.
func TestShardedOracle(t *testing.T) {
	for _, tc := range []struct {
		family string
		nodes  int
	}{
		{"road", 600},
		{"grid", 400},
	} {
		for _, shards := range []int{1, 2, 4, 7} {
			db, ps := shardOracleEnv(t, tc.family, tc.nodes, shards, 1811)
			sites, err := db.PlaceRandomNodePoints(97, tc.nodes/25+2)
			if err != nil {
				t.Fatal(err)
			}
			route := db.RandomWalkRoute(5, 4)
			for _, halo := range []int{-1, 1, 2} {
				sh, err := db.Shard(ps, &ShardOptions{
					Shards: shards, HaloDepth: halo, Seed: 3, Sites: sites,
				})
				if err != nil {
					t.Fatalf("%s/%d shards halo=%d: %v", tc.family, shards, halo, err)
				}
				ctx := context.Background()
				// Query nodes: a spread of owned and border nodes. The
				// generators may undershoot the requested node count.
				nn := db.Graph().NumNodes()
				targets := []NodeID{0, NodeID(nn / 3), NodeID(nn / 2), NodeID(nn - 1)}
				if pts := ps.Points(); len(pts) > 0 {
					if n, ok := ps.NodeOf(pts[len(pts)/2]); ok {
						targets = append(targets, n)
					}
				}
				for _, q := range targets {
					for _, k := range []int{1, 2, 4} {
						want, err := db.Run(ctx, Query{Kind: KindRNN, Target: NodeLocation(q), K: k, Points: ps})
						if err != nil {
							t.Fatal(err)
						}
						got, err := sh.Run(ctx, Query{Kind: KindRNN, Target: NodeLocation(q), K: k})
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got.Points, want.Points) {
							t.Fatalf("%s shards=%d halo=%d rnn(q=%d,k=%d): sharded %v, unsharded %v",
								tc.family, shards, halo, q, k, got.Points, want.Points)
						}
					}
					want, err := db.Run(ctx, Query{Kind: KindBichromatic, Target: NodeLocation(q), K: 2, Points: ps, Sites: sites})
					if err != nil {
						t.Fatal(err)
					}
					got, err := sh.Run(ctx, Query{Kind: KindBichromatic, Target: NodeLocation(q), K: 2})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Points, want.Points) {
						t.Fatalf("%s shards=%d halo=%d bichromatic(q=%d): sharded %v, unsharded %v",
							tc.family, shards, halo, q, got.Points, want.Points)
					}
				}
				want, err := db.Run(ctx, Query{Kind: KindContinuous, Route: route, K: 2, Points: ps})
				if err != nil {
					t.Fatal(err)
				}
				got, err := sh.Run(ctx, Query{Kind: KindContinuous, Route: route, K: 2})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Points, want.Points) {
					t.Fatalf("%s shards=%d halo=%d continuous: sharded %v, unsharded %v",
						tc.family, shards, halo, got.Points, want.Points)
				}
				if err := sh.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestShardedOracleBatch runs the oracle through RunBatch's worker pool
// — the -race coverage for concurrent scatter-gather.
func TestShardedOracleBatch(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 500, 4, 7)
	sh, err := db.Shard(ps, &ShardOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	var qs []Query
	for n := 0; n < db.Graph().NumNodes(); n += 23 {
		qs = append(qs, Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: 2})
	}
	rep, err := sh.RunBatch(context.Background(), qs, &BatchOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d batch entries failed", rep.Failed)
	}
	for i, r := range rep.Results {
		uq := qs[i]
		uq.Points = ps
		want, err := db.Run(context.Background(), uq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Result.Points, want.Points) {
			t.Fatalf("entry %d: sharded %v, unsharded %v", i, r.Result.Points, want.Points)
		}
	}
	st := sh.Stats()
	if st.Queries != int64(len(qs)) || st.FanOuts != int64(4*len(qs)) {
		t.Fatalf("stats: queries=%d fanouts=%d, want %d/%d", st.Queries, st.FanOuts, len(qs), 4*len(qs))
	}
}

// TestShardedSubstrates runs the oracle with per-shard hub-label and
// materialization substrates attached — each shard's planner should pick
// them up without changing any answer.
func TestShardedSubstrates(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 400, 3, 11)
	sh, err := db.Shard(ps, &ShardOptions{Shards: 3, HubLabelK: 4, MatK: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	for n := 0; n < db.Graph().NumNodes(); n += 37 {
		for _, k := range []int{1, 4} {
			want, err := db.Run(ctx, Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: k, Points: ps})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.Run(ctx, Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: k})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Points, want.Points) {
				t.Fatalf("rnn(q=%d,k=%d): sharded %v, unsharded %v", n, k, got.Points, want.Points)
			}
		}
	}
}

// TestShardedKNNGlobal: KindKNN runs on the coordinator's global engine
// and matches the unsharded answer.
func TestShardedKNNGlobal(t *testing.T) {
	db, ps := shardOracleEnv(t, "grid", 300, 2, 5)
	sh, err := db.Shard(ps, &ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	want, err := db.Run(context.Background(), Query{Kind: KindKNN, Target: NodeLocation(7), K: 3, Points: ps})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Run(context.Background(), Query{Kind: KindKNN, Target: NodeLocation(7), K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Neighbors, want.Neighbors) {
		t.Fatalf("knn: sharded %v, unsharded %v", got.Neighbors, want.Neighbors)
	}
	if st := sh.Stats(); st.GlobalRuns != 1 {
		t.Fatalf("GlobalRuns = %d, want 1", st.GlobalRuns)
	}
}

// TestShardedDeadline: a microscopic parent timeout fails with the typed
// deadline error — upfront, deterministically, with the planned but empty
// partial Result of an unstarted query — and a sane timeout derives a
// tighter per-shard deadline.
func TestShardedDeadline(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 300, 2, 9)
	sh, err := db.Shard(ps, &ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	res, err := sh.Run(context.Background(), Query{
		Kind: KindRNN, Target: NodeLocation(5), K: 2,
		QueryOptions: QueryOptions{Timeout: time.Nanosecond},
	})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("1ns timeout: got %v, want ErrDeadlineExceeded", err)
	}
	if res == nil || res.Plan.Reason == "" || len(res.Points) != 0 || res.Stats != (Stats{}) {
		t.Fatalf("1ns timeout: partial result %+v, want the plan and no work", res)
	}
}

func TestShardTimeoutDerivation(t *testing.T) {
	for _, tc := range []struct {
		parent, want time.Duration
	}{
		{0, 0},
		{time.Nanosecond, time.Nanosecond}, // too small to split: propagate
		{100 * time.Millisecond, 90 * time.Millisecond},
		{time.Second, 950 * time.Millisecond}, // reserve capped at 50ms
		{10 * time.Second, 9950 * time.Millisecond},
	} {
		if got := shardTimeout(tc.parent); got != tc.want {
			t.Errorf("shardTimeout(%v) = %v, want %v", tc.parent, got, tc.want)
		}
	}
}

func TestMergeCandidates(t *testing.T) {
	got := mergeCandidates([][]PointID{{5, 1, 3}, {3, 2}, nil, {1, 9, 9}})
	want := []PointID{1, 2, 3, 5, 9}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merge = %v, want %v", got, want)
	}
	if mergeCandidates(nil) != nil {
		t.Fatal("empty merge not nil")
	}
}

// TestShardedValidation covers the construction and query-shape errors.
func TestShardedValidation(t *testing.T) {
	db, ps := shardOracleEnv(t, "grid", 200, 2, 3)
	if _, err := db.Shard(ps, nil); err == nil {
		t.Error("nil options accepted")
	}
	if _, err := db.Shard(ps, &ShardOptions{Shards: 0}); err == nil {
		t.Error("0 shards accepted")
	}
	g2, err := GenerateGrid(4, 100, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(g2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps2 := db2.NewNodePoints()
	if _, err := db.Shard(ps2, &ShardOptions{Shards: 2}); err == nil {
		t.Error("foreign point set accepted")
	}
	sh, err := db.Shard(ps, &ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if _, err := sh.Run(context.Background(), Query{Kind: KindRNN, Target: NodeLocation(1), K: 1, Points: ps}); err == nil {
		t.Error("explicit Points accepted by sharded Run")
	}
	if _, err := sh.Run(context.Background(), Query{Kind: KindBichromatic, Target: NodeLocation(1), K: 1}); err == nil {
		t.Error("bichromatic without sites accepted")
	}
	if _, err := sh.RunShard(context.Background(), 5, Query{Kind: KindRNN, Target: NodeLocation(1), K: 1}); err == nil {
		t.Error("out-of-range shard accepted")
	}
}

// fakeRunner returns scripted per-shard results — the remote-coordinator
// path without HTTP.
type fakeRunner struct {
	results map[int]*ShardResult
	errs    map[int]error
}

func (f *fakeRunner) RunShard(_ context.Context, sh int, _ Query) (*ShardResult, error) {
	return f.results[sh], f.errs[sh]
}

// TestShardedRunnerMode: a pure coordinator merges and verifies remote
// candidate sets; garbage ids are rejected by verification, and the
// verified answer still equals the oracle when the honest candidates are
// a superset of the true members.
func TestShardedRunnerMode(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 300, 2, 13)
	q := NodeID(150)
	want, err := db.Run(context.Background(), Query{Kind: KindRNN, Target: NodeLocation(q), K: 2, Points: ps})
	if err != nil {
		t.Fatal(err)
	}
	// All points as candidates (a trivially correct superset), plus
	// garbage ids an adversarial remote might return.
	all := ps.Points()
	junk := append(append([]PointID{}, all...), -5, 1<<20)
	runner := &fakeRunner{results: map[int]*ShardResult{0: {Candidates: junk}, 1: {}}}
	sh, err := db.Shard(ps, &ShardOptions{Shards: 2, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sh.Run(context.Background(), Query{Kind: KindRNN, Target: NodeLocation(q), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("coordinator-over-runner: %v, want %v", got.Points, want.Points)
	}
	if _, err := sh.RunShard(context.Background(), 0, Query{Kind: KindRNN, Target: NodeLocation(q), K: 2}); err == nil {
		t.Error("RunShard on a pure coordinator accepted")
	}
	// A shard failing with a typed exec error yields a partial verified
	// answer alongside the error; a hard failure is a hard error.
	runner.errs = map[int]error{1: context.DeadlineExceeded}
	if _, err := sh.Run(context.Background(), Query{Kind: KindRNN, Target: NodeLocation(q), K: 2}); err == nil {
		t.Error("hard shard error swallowed")
	}
	runner.errs = map[int]error{1: ErrDeadlineExceeded}
	got, err = sh.Run(context.Background(), Query{Kind: KindRNN, Target: NodeLocation(q), K: 2})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("typed shard error: got %v", err)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("partial answer lost: %v, want %v", got.Points, want.Points)
	}
}

// TestShardedStatsShape pins the stats the /stats shard section serves.
func TestShardedStatsShape(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 300, 3, 17)
	sh, err := db.Shard(ps, &ShardOptions{Shards: 3, HaloDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if _, err := sh.Run(context.Background(), Query{Kind: KindRNN, Target: NodeLocation(9), K: 2}); err != nil {
		t.Fatal(err)
	}
	st := sh.Stats()
	if st.Shards != 3 || st.HaloDepth != 2 || len(st.PerShard) != 3 {
		t.Fatalf("shape: %+v", st)
	}
	if st.CutEdges == 0 {
		t.Error("no cut edges on a 3-way partition of a connected road network")
	}
	owned, haloed := 0, 0
	for _, p := range st.PerShard {
		owned += p.OwnedPoints
		haloed += p.HaloPoints
		if p.Queries != 1 {
			t.Errorf("shard %d served %d sub-queries, want 1", p.Shard, p.Queries)
		}
	}
	if owned != ps.Len() {
		t.Errorf("owned points sum %d, want %d", owned, ps.Len())
	}
	if haloed == 0 {
		t.Error("boundary-heavy placement produced no halo replicas")
	}
	if st.VerifyRuns != st.Candidates {
		t.Errorf("verify runs %d != candidates %d", st.VerifyRuns, st.Candidates)
	}
}

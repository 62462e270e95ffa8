package graphrnn

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphrnn/internal/exec"
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
	case "lattice":
		// A square lattice of unit weights only (GenerateGrid adds
		// Euclidean shortcuts): every distance is a small integer, so ties
		// are everywhere and exact under any order of float additions.
		side := 1
		for side*side < nodes {
			side++
		}
		gb := NewGraphBuilder(side * side)
		for i := 0; i < side*side && err == nil; i++ {
			if i%side+1 < side {
				err = gb.AddEdge(NodeID(i), NodeID(i+1), 1)
			}
			if i+side < side*side && err == nil {
				err = gb.AddEdge(NodeID(i), NodeID(i+side), 1)
			}
		}
		if err == nil {
			g, err = gb.Build()
		}
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

// TestShardedOracle is the cross-shard correctness property: sharded
// answers equal the brute-force oracle's — same members, same order —
// across topologies, shard counts, halo depths and query kinds, with
// boundary-heavy point placements. With HubLabelK the monochromatic kinds
// are answered by the coordinator's index at k below and at the
// materialized thresholds and by scatter-gather beyond them; the unit-weight
// lattice is the tie case that pins the strict '<' rule there. (The
// Euclidean shortcuts of "grid" make label sums and path sums differ in the
// last bit, so it runs without a hub index — see the Exactness note in
// sharded.go.) One halo depth runs on disk-backed shards, and once every
// Sharded and the DB are closed the shared pool must hold no tenant.
func TestShardedOracle(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		family string
		nodes  int
		hubKs  []int
	}{
		{"road", 600, []int{0, 2}},
		{"grid", 400, []int{0}},
		{"lattice", 400, []int{0, 2}},
	} {
		for _, shards := range []int{1, 2, 4, 7} {
			db, ps := shardOracleEnv(t, tc.family, tc.nodes, shards, 1811)
			sites, err := db.PlaceRandomNodePoints(97, tc.nodes/25+2)
			if err != nil {
				t.Fatal(err)
			}
			route := db.RandomWalkRoute(5, 4)
			// Query nodes: a spread of owned and border nodes. The
			// generators may undershoot the requested node count.
			nn := db.Graph().NumNodes()
			targets := []NodeID{0, NodeID(nn / 3), NodeID(nn / 2), NodeID(nn - 1)}
			if pts := ps.Points(); len(pts) > 0 {
				if n, ok := ps.NodeOf(pts[len(pts)/2]); ok {
					targets = append(targets, n)
				}
			}
			var queries []Query
			for _, q := range targets {
				queries = append(queries, Query{Kind: KindRNN, Target: NodeLocation(q)},
					Query{Kind: KindBichromatic, Target: NodeLocation(q), K: 2})
			}
			queries = append(queries, Query{Kind: KindContinuous, Route: route})
			for _, hubK := range tc.hubKs {
				ks := []int{1, 2, 4}
				if hubK > 0 {
					ks = []int{1, hubK, hubK + 1}
				}
				for _, halo := range []int{-1, 1, 2} {
					// One halo depth serves its shards from paged files, each
					// a tenant of db's pool: what the cleanup below looks for.
					sh, err := db.Shard(ps, &ShardOptions{
						Shards: shards, HaloDepth: halo, Seed: 3, Sites: sites, HubLabelK: hubK,
						DiskBacked: halo == 1, BufferPages: 8,
					})
					if err != nil {
						t.Fatalf("%s/%d shards halo=%d hubK=%d: %v", tc.family, shards, halo, hubK, err)
					}
					for _, q := range queries {
						qks := ks
						if q.Kind == KindBichromatic {
							qks = []int{q.K}
						}
						for _, k := range qks {
							q.K = k
							want := "by expansion"
							if q.Kind != KindBichromatic && k <= hubK {
								want = "no fan-out"
							}
							oq := q
							oq.Points, oq.Algorithm = ps, BruteForce()
							if q.Kind == KindBichromatic {
								oq.Sites = sites
							}
							oracle, err := db.Run(ctx, oq)
							if err != nil {
								t.Fatal(err)
							}
							got, err := sh.Run(ctx, q)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got.Points, oracle.Points) {
								t.Fatalf("%s shards=%d halo=%d hubK=%d %v(q=%d,route=%v,k=%d): sharded %v, brute %v",
									tc.family, shards, halo, hubK, q.Kind, q.Target.U, q.Route, k, got.Points, oracle.Points)
							}
							if !strings.HasSuffix(got.Plan.Reason, want) {
								t.Fatalf("%s hubK=%d %v: plan %q does not say %q", tc.family, hubK, q.Kind, got.Plan.Reason, want)
							}
						}
					}
					if err := sh.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if left := db.PoolStats().Tenants; len(left) > 0 {
				t.Fatalf("%s/%d shards: %d tenant(s) survive Sharded.Close and DB.Close, first %q", tc.family, shards, len(left), left[0].Name)
			}
		}
	}
}

// TestShardedEqualsUnshardedHubLabel: with a hub index the sharded answer is
// the unsharded hub-label answer — same labeling, same float additions, so
// the same members from every node of the graph, ties included.
func TestShardedEqualsUnshardedHubLabel(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 2000, 4, 29)
	idx, err := db.BuildHubLabelIndex(ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	sh, err := db.Shard(ps, &ShardOptions{Shards: 4, Seed: 29, HubLabelK: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	var members int
	for n := range db.Graph().NumNodes() {
		for k := 1; k <= 2; k++ {
			want, err := db.Run(ctx, Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: k, Points: ps, Algorithm: HubLabel(idx)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := sh.Run(ctx, Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: k})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Points, want.Points) {
				t.Fatalf("rnn(q=%d,k=%d): sharded %v, unsharded hub-label %v", n, k, got.Points, want.Points)
			}
			if got.Stats.NodesScanned != 0 || got.Stats.LabelReads == 0 {
				t.Fatalf("rnn(q=%d,k=%d): stats %+v, want label reads and no expansion", n, k, got.Stats)
			}
			members += len(got.Points)
		}
	}
	if members == 0 {
		t.Fatal("no query had a member")
	}
}

// TestShardedOracleBatch runs the oracle through RunBatch's worker pool
// — the -race coverage for concurrent scatter-gather and for concurrent
// queries on the coordinator's index.
func TestShardedOracleBatch(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 500, 4, 7)
	var qs []Query
	for n := 0; n < db.Graph().NumNodes(); n += 23 {
		qs = append(qs, Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: 2})
	}
	for _, hubK := range []int{0, 2} {
		sh, err := db.Shard(ps, &ShardOptions{Shards: 4, HubLabelK: hubK})
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		rep := sh.RunBatch(context.Background(), qs, &BatchOptions{Parallelism: 4})
		if rep.Failed != 0 {
			t.Fatalf("hubK=%d: %d batch entries failed", hubK, rep.Failed)
		}
		for i, r := range rep.Results {
			uq := qs[i]
			uq.Points = ps
			want, err := db.Run(context.Background(), uq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r.Result.Points, want.Points) {
				t.Fatalf("hubK=%d entry %d: sharded %v, unsharded %v", hubK, i, r.Result.Points, want.Points)
			}
		}
		scattered, global := int64(len(qs)), int64(0)
		if hubK > 0 {
			scattered, global = global, scattered
		}
		st := sh.Stats()
		if st.Queries != scattered || st.FanOuts != 4*scattered || st.GlobalRuns != global {
			t.Fatalf("hubK=%d stats: queries=%d fanouts=%d global=%d, want %d/%d/%d",
				hubK, st.Queries, st.FanOuts, st.GlobalRuns, scattered, 4*scattered, global)
		}
	}
}

// TestShardedSubstrates runs the oracle with both substrates attached: the
// hub index serves from the coordinator up to its maxK, and beyond it each
// shard's planner picks up its materialization — without changing any
// answer.
func TestShardedSubstrates(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 400, 3, 11)
	sh, err := db.Shard(ps, &ShardOptions{Shards: 3, HubLabelK: 2, MatK: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	ctx := context.Background()
	for n := 0; n < db.Graph().NumNodes(); n += 37 {
		for _, k := range []int{1, 2, 4} {
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
			if byIndex, byLists := got.Stats.LabelReads > 0, got.Stats.MatReads > 0; byIndex != (k <= 2) || byLists == byIndex {
				t.Fatalf("rnn(q=%d,k=%d): stats %+v (plan %q), want the hub index up to k=2 and eager-M shards beyond",
					n, k, got.Stats, got.Plan.Reason)
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

// TestShardTimeoutDerivation pins how shardOptions carves a shard's bounds
// out of the parent query's: the deadline keeps a reserve for the merge and
// the verify pass, MaxNodes is split evenly across the shards, and
// MaxIOReads is split only for shards that read through pools of their own.
func TestShardTimeoutDerivation(t *testing.T) {
	for _, tc := range []struct {
		parent  QueryOptions
		shards  int
		splitIO bool
		want    QueryOptions
	}{
		{QueryOptions{}, 4, true, QueryOptions{}},
		{QueryOptions{Timeout: time.Nanosecond}, 4, true, QueryOptions{Timeout: time.Nanosecond}}, // too small to split: propagate
		{QueryOptions{Timeout: 100 * time.Millisecond}, 4, true, QueryOptions{Timeout: 90 * time.Millisecond}},
		{QueryOptions{Timeout: time.Second}, 4, true, QueryOptions{Timeout: 950 * time.Millisecond}}, // reserve capped at 50ms
		{QueryOptions{Timeout: 10 * time.Second}, 4, true, QueryOptions{Timeout: 9950 * time.Millisecond}},
		{QueryOptions{Budget: Budget{MaxNodes: 1000}}, 4, true, QueryOptions{Budget: Budget{MaxNodes: 250}}},
		{QueryOptions{Budget: Budget{MaxIOReads: 10}}, 3, true, QueryOptions{Budget: Budget{MaxIOReads: 3}}},
		{QueryOptions{Budget: Budget{MaxNodes: 7, MaxIOReads: 2}}, 8, true, QueryOptions{Budget: Budget{MaxNodes: 1, MaxIOReads: 1}}}, // never rounds to unlimited
		{QueryOptions{Budget: Budget{MaxNodes: 1000}}, 1, true, QueryOptions{Budget: Budget{MaxNodes: 1000}}},
		{
			QueryOptions{Timeout: 100 * time.Millisecond, Budget: Budget{MaxNodes: 900, MaxIOReads: 90}}, 2, true,
			QueryOptions{Timeout: 90 * time.Millisecond, Budget: Budget{MaxNodes: 450, MaxIOReads: 45}},
		},
		// Shards on the coordinator's pool: its counter is shared, so the
		// I/O budget stays whole.
		{QueryOptions{Budget: Budget{MaxNodes: 1000, MaxIOReads: 10}}, 4, false, QueryOptions{Budget: Budget{MaxNodes: 250, MaxIOReads: 10}}},
	} {
		if got := shardOptions(tc.parent, tc.shards, tc.splitIO); got != tc.want {
			t.Errorf("shardOptions(%+v, %d, %v) = %+v, want %+v", tc.parent, tc.shards, tc.splitIO, got, tc.want)
		}
	}
}

// TestShardedBudgetBoundsQuery: q.Budget bounds a scatter-gather query as a
// whole. With MaxNodes at a quarter and at half of a query's unbounded work,
// the shards and the verify pass together stop within one polling stride per
// shard plus one for the verify pass, and what they confirmed before
// stopping is part of the unbounded answer. DiskBacked shards read through
// the coordinator's pool, whose read counter charges every shard and the
// verify pass with the whole query's reads: a MaxIOReads of the query's cold
// reads lets it finish, and half of them stops it within the same slack.
func TestShardedBudgetBoundsQuery(t *testing.T) {
	const shards = 4
	g, err := GenerateRoadNetwork(41, 6000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(g, &Options{DiskBacked: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ps, err := db.PlaceRandomNodePoints(42, 60)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := db.Shard(ps, &ShardOptions{Shards: shards, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	disk, err := db.Shard(ps, &ShardOptions{Shards: shards, Seed: 41, DiskBacked: true, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ctx := context.Background()
	slack := int64((shards + 1) * exec.CheckStride)
	// cold runs q on sh from an empty buffer and reports the pool's reads.
	cold := func(sh *Sharded, q Query) (*Result, int64, error) {
		t.Helper()
		if err := db.DropCache(); err != nil {
			t.Fatal(err)
		}
		before := db.PoolStats().Reads
		res, err := sh.Run(ctx, q)
		return res, db.PoolStats().Reads - before, err
	}
	subset := func(q Query, b Budget, res, full *Result) {
		t.Helper()
		for _, p := range res.Points {
			if !slices.Contains(full.Points, p) {
				t.Fatalf("q=%d %+v: partial member %d is not in the answer %v", q.Target.U, b, p, full.Points)
			}
		}
	}
	ioTripped := 0
	for n := 0; n < g.NumNodes(); n += g.NumNodes() / 12 {
		q := Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: 2}
		full, err := mem.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		work := full.Stats.NodesExpanded + full.Stats.NodesScanned
		for _, div := range []int64{4, 2} {
			bq := q
			bq.Budget.MaxNodes = work / div
			res, err := mem.Run(ctx, bq)
			if !errors.Is(err, ErrBudgetExceeded) || res == nil {
				t.Fatalf("q=%d budget %d of %d: result %+v, error %v; want a partial result and ErrBudgetExceeded", n, bq.Budget.MaxNodes, work, res, err)
			}
			if got := res.Stats.NodesExpanded + res.Stats.NodesScanned; got > bq.Budget.MaxNodes+slack {
				t.Fatalf("q=%d: %d nodes under a budget of %d (%.2fx; allowed %d over)", n, got, bq.Budget.MaxNodes,
					float64(got)/float64(bq.Budget.MaxNodes), slack)
			}
			subset(q, bq.Budget, res, full)
		}

		// Lazy: on paged shards the planner picks eager, whose range-NN
		// probes pop millions of nodes on this sparse point set.
		bq := q
		bq.Algorithm = Lazy()
		_, reads, err := cold(disk, bq)
		if err != nil {
			t.Fatal(err)
		}
		bq.Budget.MaxIOReads = reads
		if res, _, err := cold(disk, bq); err != nil || !slices.Equal(res.Points, full.Points) {
			t.Fatalf("q=%d: %d cold reads under a budget of as many: result %+v, error %v; want the answer %v", n, reads, res, err, full.Points)
		}
		bq.Budget.MaxIOReads = max(reads/2, 1)
		res, got, err := cold(disk, bq)
		switch {
		case err == nil:
			if !slices.Equal(res.Points, full.Points) {
				t.Fatalf("q=%d %+v: finished with %v, want %v", n, bq.Budget, res.Points, full.Points)
			}
		case !errors.Is(err, ErrBudgetExceeded) || res == nil:
			t.Fatalf("q=%d %+v: result %+v, error %v; want a partial result and ErrBudgetExceeded", n, bq.Budget, res, err)
		default:
			ioTripped++
			if got > bq.Budget.MaxIOReads+slack {
				t.Fatalf("q=%d: %d reads under a budget of %d (allowed %d over)", n, got, bq.Budget.MaxIOReads, slack)
			}
			subset(q, bq.Budget, res, full)
		}
	}
	if ioTripped == 0 {
		t.Error("no I/O budget of half a query's cold reads tripped")
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
	// called, when set, runs inside every sub-query — after the
	// coordinator's upfront checks, before its verify pass.
	called func()
}

func (f *fakeRunner) RunShard(_ context.Context, sh int, _ Query) (*ShardResult, error) {
	if f.called != nil {
		f.called()
	}
	return f.results[sh], f.errs[sh]
}

// TestShardedRunnerMode: a pure coordinator merges and verifies remote
// candidate sets; garbage, duplicate and deleted ids are rejected by
// verification, and the verified answer still equals the oracle when the
// honest candidates are a superset of the true members.
func TestShardedRunnerMode(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 300, 2, 13)
	q := NodeID(150)
	all := ps.Points()
	deleted := all[len(all)/2]
	if err := ps.Delete(deleted); err != nil {
		t.Fatal(err)
	}
	want, err := db.Run(context.Background(), Query{Kind: KindRNN, Target: NodeLocation(q), K: 2, Points: ps, Algorithm: BruteForce()})
	if err != nil {
		t.Fatal(err)
	}
	// All points as candidates (a trivially correct superset) — the deleted
	// one among them, some twice — plus garbage ids an adversarial remote
	// might return.
	junk := append(append([]PointID{}, all...), -5, 1<<20, all[0], deleted)
	runner := &fakeRunner{results: map[int]*ShardResult{0: {Candidates: junk}, 1: {Candidates: all[:3]}}}
	sh, err := db.Shard(ps, &ShardOptions{Shards: 2, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	got, err := sh.Run(context.Background(), Query{Kind: KindRNN, Target: NodeLocation(q), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("coordinator-over-runner: %v, want %v", got.Points, want.Points)
	}
	if st := sh.Stats(); st.VerifyRuns != int64(len(all)+2) || st.VerifyRejected != st.VerifyRuns-int64(len(want.Points)) {
		t.Errorf("%d verify runs, %d rejected for %d distinct candidates and %d members",
			st.VerifyRuns, st.VerifyRejected, len(all)+2, len(want.Points))
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

// TestShardedVerifyAbandoned: the verify pass polls the execution context
// once per candidate — its sub-expansions poll only every 64th pop and
// finish first — so a pass cut short — the context cancelled or the deadline
// passed while the shards answered, a budget running out between two
// candidates — returns the members confirmed so far beside the typed error.
func TestShardedVerifyAbandoned(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 300, 2, 13)
	q := Query{Kind: KindRNN, Target: NodeLocation(150), K: 2}
	all := ps.Points()
	runner := &fakeRunner{results: map[int]*ShardResult{0: {Candidates: all}, 1: {}}}
	sh, err := db.Shard(ps, &ShardOptions{Shards: 2, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	full, err := sh.Run(context.Background(), q)
	if err != nil || len(full.Points) < 2 {
		t.Fatalf("full answer %+v, %v", full, err)
	}
	unstarted := func(name string, res *Result, err, want error) {
		t.Helper()
		if !errors.Is(err, want) || res == nil || res.Points == nil || len(res.Points) != 0 || res.Plan.Reason == "" {
			t.Errorf("%s while the shards answered: result %+v, error %v", name, res, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	runner.called = cancel
	res, err := sh.Run(ctx, q)
	unstarted("cancelled", res, err, ErrCanceled)
	timed := q
	timed.Timeout = 20 * time.Millisecond
	runner.called = func() { time.Sleep(30 * time.Millisecond) }
	res, err = sh.Run(context.Background(), timed)
	unstarted("expired", res, err, ErrDeadlineExceeded)
	runner.called = nil

	// Mid-verify, deterministically: a node budget one short of the work of
	// the candidates before the second member runs out at the poll before
	// that member's turn (no single verification comes near it).
	cut := slices.Index(all, full.Points[1])
	before, err := sh.verifyCandidates(nil, q, all[:cut], Stats{})
	if err != nil {
		t.Fatal(err)
	}
	budgeted := q
	budgeted.Budget.MaxNodes = before.Stats.NodesExpanded + before.Stats.NodesScanned - 1
	res, err = sh.Run(context.Background(), budgeted)
	if !errors.Is(err, ErrBudgetExceeded) || res == nil || !reflect.DeepEqual(res.Points, full.Points[:1]) {
		t.Fatalf("verify abandoned at candidate %d of %d: result %+v, error %v; want member %v of %v",
			cut+1, len(all), res, err, full.Points[:1], full.Points)
	}
}

// TestShardedHubAnswersAtCoordinator: a query the coordinator's hub index
// covers is answered there — the unsharded hub-label answer, no shard
// sub-query, in-process and over a runner alike — and what it does not
// cover (k beyond HubLabelK, an algorithm hint) still fans out, verifies by
// expansion and equals the brute-force oracle.
func TestShardedHubAnswersAtCoordinator(t *testing.T) {
	const hubK = 2
	db, ps := shardOracleEnv(t, "lattice", 144, 3, 37)
	idx, err := db.buildHubLabelIndex(ps, hubK, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	ctx := context.Background()
	run := func(q Query, algo Algorithm) []PointID {
		t.Helper()
		q.Points, q.Algorithm = ps, algo
		res, err := db.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Points
	}
	inProcess, err := db.Shard(ps, &ShardOptions{Shards: 3, Seed: 37, HubLabelK: hubK})
	if err != nil {
		t.Fatal(err)
	}
	defer inProcess.Close()
	// The runner proposes every point: a superset of any answer.
	var calls atomic.Int64 // the fan-out calls the runner from one goroutine per shard
	runner := &fakeRunner{results: map[int]*ShardResult{0: {Candidates: ps.Points()}}, called: func() { calls.Add(1) }}
	coordinator, err := db.Shard(ps, &ShardOptions{Shards: 3, Seed: 37, HubLabelK: hubK, Runner: runner})
	if err != nil {
		t.Fatal(err)
	}
	defer coordinator.Close()

	for _, mode := range []struct {
		name string
		sh   *Sharded
	}{{"in-process", inProcess}, {"coordinator", coordinator}} {
		name, sh := mode.name, mode.sh
		var covered []Query
		for _, p := range ps.Points() {
			n, _ := ps.NodeOf(p)
			covered = append(covered, Query{Kind: KindRNN, Target: NodeLocation(n)},
				Query{Kind: KindContinuous, Route: []NodeID{n, 0, NodeID(db.Graph().NumNodes() - 1)}})
		}
		for _, q := range covered {
			for q.K = 1; q.K <= hubK; q.K++ {
				got, err := sh.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if want := run(q, HubLabel(idx)); !reflect.DeepEqual(got.Points, want) {
					t.Fatalf("%s %v(q=%d,route=%v,k=%d): %v, unsharded hub-label %v", name, q.Kind, q.Target.U, q.Route, q.K, got.Points, want)
				}
				if ex := got.Plan.Explain(); !strings.Contains(ex, "via hub-label: the coordinator's hub-label index") {
					t.Fatalf("%s: plan %q does not name the coordinator's index", name, ex)
				}
			}
		}
		st := sh.Stats()
		if st.FanOuts != 0 || st.Queries != 0 || calls.Load() != 0 || st.GlobalRuns != int64(hubK*len(covered)) {
			t.Fatalf("%s: %d fan-outs, %d scatter-gather queries, %d runner calls, %d global runs for %d covered queries",
				name, st.FanOuts, st.Queries, calls.Load(), st.GlobalRuns, hubK*len(covered))
		}

		n, _ := ps.NodeOf(ps.Points()[ps.Len()/2])
		for i, q := range []Query{
			{Kind: KindRNN, Target: NodeLocation(n), K: hubK + 1},
			{Kind: KindRNN, Target: NodeLocation(n), K: hubK, Algorithm: Eager()},
			{Kind: KindContinuous, Route: []NodeID{n, 0}, K: hubK + 1},
		} {
			got, err := sh.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if want := run(q, BruteForce()); !reflect.DeepEqual(got.Points, want) {
				t.Fatalf("%s uncovered %v(k=%d,%v): %v, brute %v", name, q.Kind, q.K, q.Algorithm, got.Points, want)
			}
			if !strings.HasSuffix(got.Plan.Reason, "by expansion") || got.Stats.LabelReads != 0 {
				t.Fatalf("%s uncovered %v(k=%d,%v): plan %q, stats %+v", name, q.Kind, q.K, q.Algorithm, got.Plan.Reason, got.Stats)
			}
			if st := sh.Stats(); st.FanOuts != int64(3*(i+1)) || st.VerifyRuns == 0 {
				t.Fatalf("%s: %d fan-outs, %d verify runs after %d uncovered queries", name, st.FanOuts, st.VerifyRuns, i+1)
			}
		}

		expired := Query{Kind: KindRNN, Target: NodeLocation(n), K: 1, QueryOptions: QueryOptions{Timeout: time.Nanosecond}}
		res, err := sh.Run(ctx, expired)
		if !errors.Is(err, ErrDeadlineExceeded) || res == nil || res.Plan.Algorithm.String() != "hub-label" ||
			res.Points != nil || res.Stats != (Stats{}) {
			t.Fatalf("%s expired: result %+v, error %v; want the plan alone and ErrDeadlineExceeded", name, res, err)
		}
	}
	if calls.Load() != 3*3 {
		t.Fatalf("runner served %d sub-queries, want 3 shards x 3 uncovered queries", calls.Load())
	}
}

// TestShardedOneLabeling: the labeling is built once per Sharded, for the
// coordinator's index alone — a second Close a no-op — and neither the shard
// engines' planners nor the parent DB's see that private index.
func TestShardedOneLabeling(t *testing.T) {
	db, ps := shardOracleEnv(t, "road", 400, 4, 31)
	sh, err := db.Shard(ps, &ShardOptions{Shards: 4, HubLabelK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sh.hub == nil {
		t.Fatal("the coordinator has no hub index")
	}
	for i, h := range sh.handles {
		if latest(&h.ps.hubs) != nil {
			t.Fatalf("shard %d has a hub index of its own", i)
		}
	}
	ctx := context.Background()
	for n := 0; n < db.Graph().NumNodes(); n += 41 {
		want, err := db.Run(ctx, Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: 2, Points: ps})
		if err != nil {
			t.Fatal(err)
		}
		if want.Plan.Algorithm.String() == "hub-label" {
			t.Fatalf("the parent DB planned %v over the sharded set's private index", want.Plan.Algorithm)
		}
		got, err := sh.Run(ctx, Query{Kind: KindRNN, Target: NodeLocation(NodeID(n)), K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("rnn(q=%d): sharded %v, unsharded %v", n, got.Points, want.Points)
		}
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sh.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
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

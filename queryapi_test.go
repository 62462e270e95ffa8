package graphrnn_test

// Tests for the unified query API: the declarative Query surface, the
// planner's auto-selection and hint fallbacks, Plan/Explain stability, the
// RunBatch report, and streaming delivery. The planner's answers are
// oracle-tested against explicit strict algorithms on road and grid
// datasets, memory- and disk-backed.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"graphrnn"
)

type planEnv struct {
	db    *graphrnn.DB
	ps    *graphrnn.NodePoints
	sites *graphrnn.NodePoints
	eps   *graphrnn.EdgePoints
}

// newPlanEnv builds a small dataset with no substrate attached; tests
// attach mat/hub as they go.
func newPlanEnv(t *testing.T, family string, disk bool) *planEnv {
	t.Helper()
	var (
		g   *graphrnn.Graph
		err error
	)
	switch family {
	case "road":
		g, err = graphrnn.GenerateRoadNetwork(41, 2000)
	case "grid":
		g, err = graphrnn.GenerateGrid(41, 2000, 4)
	default:
		t.Fatalf("unknown family %q", family)
	}
	if err != nil {
		t.Fatal(err)
	}
	var opt *graphrnn.Options
	if disk {
		opt = &graphrnn.Options{DiskBacked: true, BufferPages: 64}
	}
	db, err := graphrnn.Open(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(42, 40)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := db.PlaceRandomNodePoints(43, 8)
	if err != nil {
		t.Fatal(err)
	}
	eps, err := db.PlaceRandomEdgePoints(44, 30)
	if err != nil {
		t.Fatal(err)
	}
	return &planEnv{db: db, ps: ps, sites: sites, eps: eps}
}

func queryNodes(e *planEnv, n int) []graphrnn.NodeID {
	pts := e.ps.Points()
	if n > len(pts) {
		n = len(pts)
	}
	out := make([]graphrnn.NodeID, n)
	for i := 0; i < n; i++ {
		out[i], _ = e.ps.NodeOf(pts[i])
	}
	return out
}

// TestPlannerOracle checks that auto-planned queries return exactly the
// explicit-algorithm answers as substrates come and go: unindexed
// (expansion), with a materialization (eager-M), and with a hub-label
// index (hub-label) — on road and grid, memory- and disk-backed, across
// all RkNN kinds.
func TestPlannerOracle(t *testing.T) {
	for _, family := range []string{"road", "grid"} {
		for _, disk := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/disk=%v", family, disk), func(t *testing.T) {
				e := newPlanEnv(t, family, disk)
				nodes := queryNodes(e, 8)
				route := []graphrnn.NodeID{nodes[0], nodes[1], nodes[2]}

				type shape struct {
					name string
					q    graphrnn.Query
				}
				shapes := []shape{
					{"rnn", graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(nodes[3]), K: 2, Points: e.ps}},
					{"bichromatic", graphrnn.Query{Kind: graphrnn.KindBichromatic, Target: graphrnn.NodeLocation(nodes[4]), K: 1, Points: e.ps, Sites: e.sites}},
					{"continuous", graphrnn.Query{Kind: graphrnn.KindContinuous, Route: route, K: 2, Points: e.ps}},
				}

				check := func(stage, wantAlgo string) {
					t.Helper()
					for _, sh := range shapes {
						auto, err := e.db.Run(context.Background(), sh.q)
						if err != nil {
							t.Fatalf("%s/%s: auto run: %v", stage, sh.name, err)
						}
						exq := sh.q
						exq.Algorithm = graphrnn.Eager()
						explicit, err := e.db.Run(context.Background(), exq)
						if err != nil {
							t.Fatalf("%s/%s: explicit run: %v", stage, sh.name, err)
						}
						if !reflect.DeepEqual(auto.Points, explicit.Points) {
							t.Fatalf("%s/%s: auto (%s) answered %v, eager answered %v",
								stage, sh.name, auto.Plan.Algorithm, auto.Points, explicit.Points)
						}
						// Bichromatic is exempt from the monochromatic
						// expectation only when the substrate covers the
						// sites — the hub index and materialization here
						// track the data set, so bichromatic plans fall
						// through to expansion at every stage.
						if sh.name != "bichromatic" && auto.Plan.Algorithm.String() != wantAlgo {
							t.Fatalf("%s/%s: planned %s, want %s (reason: %s)",
								stage, sh.name, auto.Plan.Algorithm, wantAlgo, auto.Plan.Reason)
						}
					}
				}

				// Unindexed: the documented expansion heuristic.
				wantExpansion := "eager"
				if !disk && family == "road" {
					wantExpansion = "lazy" // memory-backed high-diameter network
				}
				check("unindexed", wantExpansion)

				mat, err := e.db.MaterializeNodePoints(e.ps, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				check("materialized", "eager-M")

				idx, err := e.db.BuildHubLabelIndex(e.ps, 4, nil)
				if err != nil {
					t.Fatal(err)
				}
				check("hub-labeled", "hub-label")

				// Closing a substrate unregisters it from the set: the
				// plan walks back down the chain.
				if err := idx.Close(); err != nil {
					t.Fatal(err)
				}
				check("hub-closed", "eager-M")
				if err := mat.Close(); err != nil {
					t.Fatal(err)
				}
				check("mat-closed", wantExpansion)
			})
		}
	}
}

// TestPlannerFallbacks covers hints the planner cannot honor: each must
// run to a correct answer on a compatible substrate and report Fallback,
// while Strict preserves the hard error.
func TestPlannerFallbacks(t *testing.T) {
	e := newPlanEnv(t, "grid", false)
	idx, err := e.db.BuildHubLabelIndex(e.ps, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	qnode := queryNodes(e, 1)[0]

	cases := []struct {
		name string
		q    graphrnn.Query
		why  string // substring the fallback reason must carry
	}{
		{
			"hub-on-edge",
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(5), K: 1,
				Points: e.eps, Algorithm: graphrnn.HubLabel(idx)},
			"node-resident",
		},
		{
			"hub-k-beyond-maxk",
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 3,
				Points: e.ps, Algorithm: graphrnn.HubLabel(idx)},
			"exceeds the index",
		},
		{
			"hub-foreign-points",
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 1,
				Points: e.sites, Algorithm: graphrnn.HubLabel(idx)},
			"different point set",
		},
		{
			"hub-nil",
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 1,
				Points: e.ps, Algorithm: graphrnn.HubLabel(nil)},
			"no hub-label index",
		},
		{
			"eagerm-nil",
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 1,
				Points: e.ps, Algorithm: graphrnn.EagerM(nil)},
			"no materialization",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := e.db.Run(context.Background(), tc.q)
			if err != nil {
				t.Fatalf("fallback did not save the query: %v", err)
			}
			if !res.Plan.Fallback {
				t.Fatalf("plan did not report a fallback: %+v", res.Plan)
			}
			if !strings.Contains(res.Plan.Reason, tc.why) {
				t.Fatalf("reason %q does not explain %q", res.Plan.Reason, tc.why)
			}
			// The fallback's answer must equal the explicit answer of the
			// substrate it fell back to.
			exq := tc.q
			exq.Algorithm = res.Plan.Algorithm
			explicit, err := e.db.Run(context.Background(), exq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Points, explicit.Points) {
				t.Fatalf("fallback answered %v, explicit %s answered %v",
					res.Points, res.Plan.Algorithm, explicit.Points)
			}

			// Strict turns the same query into a hard error.
			sq := tc.q
			sq.Strict = true
			if _, err := e.db.Run(context.Background(), sq); err == nil {
				t.Fatal("strict run of an incompatible hint succeeded")
			}
		})
	}

	// KNN has a single substrate, so a named algorithm is an incompatible
	// hint like any other: reported fallback, hard error under Strict.
	knn := graphrnn.Query{
		Kind: graphrnn.KindKNN, Target: graphrnn.NodeLocation(qnode), K: 2,
		Points: e.ps, Algorithm: graphrnn.HubLabel(idx),
	}
	res, err := e.db.Run(context.Background(), knn)
	if err != nil {
		t.Fatalf("knn with an algorithm hint: %v", err)
	}
	if !res.Plan.Fallback || !strings.Contains(res.Plan.Reason, "does not apply to knn") {
		t.Fatalf("knn hint not reported as fallback: %+v", res.Plan)
	}
	knn.Strict = true
	if _, err := e.db.Run(context.Background(), knn); err == nil || !strings.Contains(err.Error(), "single substrate") {
		t.Fatalf("strict knn with an algorithm hint: got %v, want hard error", err)
	}
}

// TestPlanExplainStability pins the planner's Explain output across all
// four kinds — the serving surface echoes these strings, so they are API.
// Each plan renders 64 times: a line that depended on a map's iteration
// order, which a range draws from a few orders at random, would differ.
func TestPlanExplainStability(t *testing.T) {
	e := newPlanEnv(t, "grid", false)
	idx, err := e.db.BuildHubLabelIndex(e.ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	qnode := queryNodes(e, 1)[0]

	cases := []struct {
		q    graphrnn.Query
		want string
	}{
		{
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 2, Points: e.ps},
			"rnn via hub-label: attached hub-label index answers this shape by label intersection",
		},
		{
			graphrnn.Query{Kind: graphrnn.KindBichromatic, Target: graphrnn.NodeLocation(qnode), K: 1, Points: e.ps, Sites: e.sites},
			"bichromatic via eager: eager expansion prunes with range-NN probes at the lowest page I/O",
		},
		{
			graphrnn.Query{Kind: graphrnn.KindContinuous, Route: []graphrnn.NodeID{1, 2}, K: 1, Points: e.ps},
			"continuous via hub-label: attached hub-label index answers this shape by label intersection",
		},
		{
			graphrnn.Query{Kind: graphrnn.KindKNN, Target: graphrnn.NodeLocation(qnode), K: 2, Points: e.ps},
			"knn via expansion: forward network expansion is the only KNN substrate",
		},
		{
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(5), K: 1, Points: e.eps},
			"rnn/edge via eager: eager expansion prunes with range-NN probes at the lowest page I/O",
		},
		{
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 1, Points: e.ps, Algorithm: graphrnn.Lazy()},
			"rnn via lazy: explicit algorithm",
		},
		{
			graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(5), K: 1, Points: e.eps, Algorithm: graphrnn.HubLabel(idx)},
			"rnn/edge via eager: hinted hub-label cannot run this shape (hub-label supports node-resident point sets only); fell back to eager",
		},
	}
	for i, tc := range cases {
		plan, err := e.db.Plan(tc.q)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for range 64 {
			if got := plan.Explain(); got != tc.want {
				t.Errorf("case %d:\n  got  %q\n  want %q", i, got, tc.want)
				break
			}
		}
	}
}

// TestQueryValidation pins the declarative surface's typed rejections.
func TestQueryValidation(t *testing.T) {
	e := newPlanEnv(t, "grid", false)
	qnode := queryNodes(e, 1)[0]
	node := graphrnn.NodeLocation(qnode)

	cases := []struct {
		name string
		q    graphrnn.Query
		want string
	}{
		{"no-points", graphrnn.Query{Kind: graphrnn.KindRNN, Target: node, K: 1}, "no point set"},
		{"bad-k", graphrnn.Query{Kind: graphrnn.KindRNN, Target: node, Points: e.ps}, "k must be >= 1"},
		{"bad-kind", graphrnn.Query{Kind: graphrnn.Kind(9), Target: node, K: 1, Points: e.ps}, "unknown query kind"},
		{"sites-on-rnn", graphrnn.Query{Kind: graphrnn.KindRNN, Target: node, K: 1, Points: e.ps, Sites: e.sites}, "only meaningful for bichromatic"},
		{"bichromatic-without-sites", graphrnn.Query{Kind: graphrnn.KindBichromatic, Target: node, K: 1, Points: e.ps}, "requires a site set"},
		{"route-on-rnn", graphrnn.Query{Kind: graphrnn.KindRNN, Target: node, K: 1, Points: e.ps, Route: []graphrnn.NodeID{1}}, "only meaningful for continuous"},
		{"continuous-without-route", graphrnn.Query{Kind: graphrnn.KindContinuous, K: 1, Points: e.ps}, "requires a route"},
		{"edge-target-node-set", graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.EdgeLocation(0, 1, 0.5), K: 1, Points: e.ps}, "node targets"},
		{"mixed-residency", graphrnn.Query{Kind: graphrnn.KindBichromatic, Target: node, K: 1, Points: e.ps, Sites: e.eps}, "share one residency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := e.db.Run(context.Background(), tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want error containing %q", err, tc.want)
			}
			// Plan must reject identically without executing.
			if _, err := e.db.Plan(tc.q); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Plan: got %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestRunBatchReport covers the new batch surface: mixed kinds in one
// batch, per-entry errors, and the aggregate report.
func TestRunBatchReport(t *testing.T) {
	e := newPlanEnv(t, "grid", false)
	nodes := queryNodes(e, 4)

	queries := []graphrnn.Query{
		{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(nodes[0]), K: 2, Points: e.ps},
		{Kind: graphrnn.KindKNN, Target: graphrnn.NodeLocation(nodes[1]), K: 3, Points: e.ps},
		{Kind: graphrnn.KindBichromatic, Target: graphrnn.NodeLocation(nodes[2]), K: 1, Points: e.ps, Sites: e.sites},
		{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(nodes[3]), Points: e.ps}, // K=0: invalid
		{Kind: graphrnn.KindContinuous, Route: []graphrnn.NodeID{nodes[0], nodes[1]}, K: 1, Points: e.ps},
	}
	rep := e.db.RunBatch(context.Background(), queries, &graphrnn.BatchOptions{Parallelism: 2})
	if len(rep.Results) != len(queries) {
		t.Fatalf("got %d results, want %d", len(rep.Results), len(queries))
	}
	if rep.Workers != 2 {
		t.Fatalf("workers = %d, want 2", rep.Workers)
	}
	if rep.Succeeded != 4 || rep.Failed != 1 {
		t.Fatalf("succeeded/failed = %d/%d, want 4/1", rep.Succeeded, rep.Failed)
	}
	if rep.Results[3].Err == nil {
		t.Fatal("invalid entry (K=0) did not report an error")
	}
	if rep.Results[1].Result == nil || len(rep.Results[1].Result.Neighbors) != 3 {
		t.Fatalf("knn entry: %+v", rep.Results[1])
	}
	if rep.Work.NodesExpanded == 0 && rep.Work.NodesScanned == 0 {
		t.Fatalf("aggregate stats are empty: %+v", rep.Work)
	}
	if rep.Wall <= 0 {
		t.Fatalf("wall time not recorded: %v", rep.Wall)
	}
	// Per-entry plans survive into the report.
	if rep.Results[0].Result.Plan.Algorithm.String() == "" {
		t.Fatal("entry 0 lost its plan")
	}
}

// TestStream checks incremental delivery: a fully consumed stream yields
// exactly Run's members, KNN streams ascend by distance, an early break
// cancels cleanly, and budget errors arrive as the final pair.
func TestStream(t *testing.T) {
	e := newPlanEnv(t, "grid", false)
	qnode := queryNodes(e, 1)[0]
	base := graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 2, Points: e.ps}

	want, err := e.db.Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Points) == 0 {
		t.Fatal("degenerate test: no members")
	}

	for _, algo := range []graphrnn.Algorithm{graphrnn.Auto(), graphrnn.Eager(), graphrnn.Lazy(), graphrnn.BruteForce()} {
		q := base
		q.Algorithm = algo
		got := map[graphrnn.PointID]bool{}
		for h, err := range e.db.Stream(context.Background(), q) {
			if err != nil {
				t.Fatalf("%s: stream error: %v", algo, err)
			}
			if got[h.P] {
				t.Fatalf("%s: member %d streamed twice", algo, h.P)
			}
			got[h.P] = true
		}
		if len(got) != len(want.Points) {
			t.Fatalf("%s: streamed %d members, want %d", algo, len(got), len(want.Points))
		}
		for _, p := range want.Points {
			if !got[p] {
				t.Fatalf("%s: member %d missing from stream", algo, p)
			}
		}
	}

	// Hub-label streams too (the index attaches on build, so Auto now
	// resolves to it).
	if _, err := e.db.BuildHubLabelIndex(e.ps, 4, nil); err != nil {
		t.Fatal(err)
	}
	got := 0
	for h, err := range e.db.Stream(context.Background(), base) {
		if err != nil {
			t.Fatalf("hub stream error: %v", err)
		}
		_ = h
		got++
	}
	if got != len(want.Points) {
		t.Fatalf("hub stream yielded %d members, want %d", got, len(want.Points))
	}

	// KNN: ascending distances.
	knn := graphrnn.Query{Kind: graphrnn.KindKNN, Target: graphrnn.NodeLocation(qnode), K: 5, Points: e.ps}
	last := -1.0
	n := 0
	for h, err := range e.db.Stream(context.Background(), knn) {
		if err != nil {
			t.Fatalf("knn stream error: %v", err)
		}
		if h.Distance < last {
			t.Fatalf("knn stream not ascending: %v after %v", h.Distance, last)
		}
		last = h.Distance
		n++
	}
	if n != 5 {
		t.Fatalf("knn streamed %d neighbors, want 5", n)
	}

	// Early break must not hang (the producer is canceled via the stream
	// context) and must not poison later queries.
	q := base
	q.Algorithm = graphrnn.Eager()
	for range e.db.Stream(context.Background(), q) {
		break
	}
	if _, err := e.db.Run(context.Background(), base); err != nil {
		t.Fatalf("query after an abandoned stream: %v", err)
	}

	// A budget cut arrives as the final (Hit{}, err) pair.
	bq := base
	bq.Algorithm = graphrnn.Eager()
	bq.Budget = graphrnn.Budget{MaxNodes: 1}
	var finalErr error
	for _, err := range e.db.Stream(context.Background(), bq) {
		if err != nil {
			finalErr = err
		}
	}
	if !errors.Is(finalErr, graphrnn.ErrBudgetExceeded) {
		t.Fatalf("budgeted stream ended with %v, want ErrBudgetExceeded", finalErr)
	}

	// A planning error is delivered as the only pair.
	bad := graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 0, Points: e.ps}
	var planErr error
	pairs := 0
	for _, err := range e.db.Stream(context.Background(), bad) {
		pairs++
		planErr = err
	}
	if pairs != 1 || planErr == nil {
		t.Fatalf("invalid stream yielded %d pairs, err %v", pairs, planErr)
	}
}

// TestRunPartialResults confirms the engine contract on the new surface: a
// budget-bound Run returns the partial answer alongside the typed error,
// with the plan attached.
func TestRunPartialResults(t *testing.T) {
	e := newPlanEnv(t, "grid", false)
	qnode := queryNodes(e, 1)[0]
	q := graphrnn.Query{
		Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(qnode), K: 2,
		Points: e.ps, Algorithm: graphrnn.Eager(),
		QueryOptions: graphrnn.QueryOptions{Budget: graphrnn.Budget{MaxNodes: 5}},
	}
	res, err := e.db.Run(context.Background(), q)
	if !errors.Is(err, graphrnn.ErrBudgetExceeded) {
		t.Fatalf("got %v, want ErrBudgetExceeded", err)
	}
	if res == nil {
		t.Fatal("partial result missing")
	}
	if res.Plan.Algorithm.String() != "eager" {
		t.Fatalf("partial result lost its plan: %+v", res.Plan)
	}
}

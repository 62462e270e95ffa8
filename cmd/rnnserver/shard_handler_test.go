package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphrnn"
)

// shardedTestEnv is the shared serving substrate of the sharded server
// tests: one graph and one global point/site set, from which both an
// unsharded oracle server and sharded servers (in-process or wired over
// HTTP) are built — all read-only, so they can share the DB.
type shardedTestEnv struct {
	db    *graphrnn.DB
	ps    *graphrnn.NodePoints
	sites *graphrnn.NodePoints
}

func newShardedTestEnv(t *testing.T) *shardedTestEnv {
	t.Helper()
	g, err := graphrnn.GenerateGrid(31, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(32, 48)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := db.PlaceRandomNodePoints(33, 8)
	if err != nil {
		t.Fatal(err)
	}
	return &shardedTestEnv{db: db, ps: ps, sites: sites}
}

// oracleServer is the unsharded reference the sharded answers must match.
func (e *shardedTestEnv) oracleServer() *server {
	return &server{db: e.db, ps: e.ps, sites: e.sites, family: "grid", started: time.Now(), shardIndex: -1}
}

func (e *shardedTestEnv) shardedServer(t *testing.T, opt *graphrnn.ShardOptions, role string, index int) *server {
	t.Helper()
	sh, err := e.db.Shard(e.ps, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return &server{
		db: e.db, ps: e.ps, sites: e.sites, family: "grid", started: time.Now(),
		sharded: sh, shardRole: role, shardIndex: index,
	}
}

// TestHandleQuerySharded drives POST /query through an in-process
// sharded server and checks every answer against the unsharded oracle,
// plus the sharded-mode serving contract: 504 on unmeetable deadlines,
// the /stats shards section, and disabled maintenance.
func TestHandleQuerySharded(t *testing.T) {
	env := newShardedTestEnv(t)
	oracle := env.oracleServer()
	s := env.shardedServer(t, &graphrnn.ShardOptions{
		Shards: 4, Seed: 5, Sites: env.sites, HubLabelK: 4,
	}, "in-process", -1)
	closeLeakFree(t, s)

	for _, body := range []string{
		`{"kind":"rnn","node":5,"k":2}`,
		`{"kind":"rnn","node":199,"k":1}`,
		`{"kind":"rnn","node":5,"k":2,"algo":"eager"}`,
		`{"kind":"rnn","node":5,"k":5}`,
		`{"kind":"bichromatic","node":42,"k":2}`,
		`{"kind":"continuous","route":[1,2,3,4],"k":2}`,
		`{"kind":"knn","node":7,"k":3}`,
	} {
		rec, out := postQuery(t, s, "/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: code %d: %v", body, rec.Code, out)
		}
		orec, oout := postQuery(t, oracle, "/query", body)
		if orec.Code != http.StatusOK {
			t.Fatalf("oracle %s: code %d: %v", body, orec.Code, oout)
		}
		if fmt.Sprint(out["points"]) != fmt.Sprint(oout["points"]) {
			t.Fatalf("%s: sharded points %v, oracle %v", body, out["points"], oout["points"])
		}
		if fmt.Sprint(out["neighbors"]) != fmt.Sprint(oout["neighbors"]) {
			t.Fatalf("%s: sharded neighbors %v, oracle %v", body, out["neighbors"], oout["neighbors"])
		}
		// The plan says what ran: the coordinator's hub index answers the
		// monochromatic kinds it covers; a hint, k beyond its maxK and
		// bichromatic scatter and verify by expansion.
		method := "no fan-out"
		if out["kind"] == "bichromatic" || strings.Contains(body, `"algo"`) || strings.Contains(body, `"k":5`) {
			method = "by expansion"
		}
		if plan, _ := out["plan"].(map[string]any); out["kind"] != "knn" && !strings.HasSuffix(fmt.Sprint(plan["reason"]), method) {
			t.Fatalf("%s: plan %v does not say %q", body, plan, method)
		}
	}

	// Batch arrays fan out per entry.
	rec, out := postQuery(t, s, "/query?parallelism=2",
		`[{"node":1,"k":1},{"kind":"bichromatic","node":2,"k":1},{"kind":"knn","node":3,"k":2}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: code %d: %v", rec.Code, out)
	}
	if results, _ := out["results"].([]any); len(results) != 3 {
		t.Fatalf("batch returned %v results, want 3", out["results"])
	}
	if out["failed"] != float64(0) {
		t.Fatalf("batch failed=%v, want 0", out["failed"])
	}

	// An unmeetable deadline answers 504 on the coordinator's index and
	// through the scatter-gather path.
	for _, body := range []string{`{"kind":"rnn","node":5,"k":2,"timeout":"1ns"}`, `{"kind":"rnn","node":5,"k":2,"algo":"eager","timeout":"1ns"}`} {
		if rec, _ = postQuery(t, s, "/query", body); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s answered %d, want 504", body, rec.Code)
		}
	}

	// /stats grows a shards section with the partition shape and fan-out
	// counters.
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	srec := httptest.NewRecorder()
	s.handleStats(srec, req)
	var stats map[string]any
	if err := json.Unmarshal(srec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	shs, _ := stats["shards"].(map[string]any)
	if shs == nil {
		t.Fatalf("stats missing shards section: %v", stats)
	}
	if shs["shards"] != float64(4) || shs["role"] != "in-process" {
		t.Fatalf("shards section shape wrong: %v", shs)
	}
	if shs["fan_outs"].(float64) == 0 || shs["verify_runs"].(float64) == 0 {
		t.Fatalf("shards section counters empty after traffic: %v", shs)
	}
	if per, _ := shs["per_shard"].([]any); len(per) != 4 {
		t.Fatalf("per_shard has %d entries, want 4", len(per))
	}

	// Maintenance and global index builds are disabled in sharded mode.
	for _, target := range []string{"/mat/insert", "/mat/delete", "/index/hublabel"} {
		req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(`{"node":1}`))
		rec := httptest.NewRecorder()
		switch target {
		case "/mat/insert":
			s.handleMatInsert(rec, req)
		case "/mat/delete":
			s.handleMatDelete(rec, req)
		default:
			s.handleHubBuild(rec, req)
		}
		if rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s in sharded mode answered %d, want 503", target, rec.Code)
		}
	}
}

// TestShardWireHTTP runs the full two-tier deployment in miniature: a
// shard-process server behind httptest serving POST /shard/query, and a
// coordinator whose Sharded fans out over HTTP — answers must still
// match the unsharded oracle, and typed errors must survive the wire.
func TestShardWireHTTP(t *testing.T) {
	env := newShardedTestEnv(t)
	oracle := env.oracleServer()
	const shards = 3

	// The shard process: local engines for every shard (a single test
	// process stands in for all peers), -shard-index unset so any index
	// is served.
	shardProc := env.shardedServer(t, &graphrnn.ShardOptions{
		Shards: shards, Seed: 9, Sites: env.sites,
	}, "shard", -1)
	ts := httptest.NewServer(http.HandlerFunc(shardProc.handleShardQuery))
	defer ts.Close()

	peers := make([]string, shards)
	for i := range peers {
		peers[i] = ts.URL
	}
	// No hub index on the coordinator: it would answer the rnn and
	// continuous queries itself and nothing would cross the wire.
	coord := env.shardedServer(t, &graphrnn.ShardOptions{
		Shards: shards, Seed: 9, Sites: env.sites,
		Runner: newHTTPShardRunner(peers),
	}, "coordinator", -1)

	for _, body := range []string{
		`{"kind":"rnn","node":11,"k":2}`,
		`{"kind":"bichromatic","node":80,"k":1}`,
		`{"kind":"continuous","route":[5,6,7],"k":2}`,
	} {
		rec, out := postQuery(t, coord, "/query", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: code %d: %v", body, rec.Code, out)
		}
		_, oout := postQuery(t, oracle, "/query", body)
		if fmt.Sprint(out["points"]) != fmt.Sprint(oout["points"]) {
			t.Fatalf("%s: coordinator points %v, oracle %v", body, out["points"], oout["points"])
		}
	}

	// A deadline too small to meet crosses the wire as error_kind
	// "deadline" and answers 504 at the coordinator.
	rec, _ := postQuery(t, coord, "/query", `{"kind":"rnn","node":5,"k":1,"timeout":"1ns"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("remote 1ns deadline answered %d, want 504", rec.Code)
	}

	// The coordinator's stats count the remote fan-out.
	st := coord.sharded.Stats()
	if st.Queries == 0 || st.FanOuts != st.Queries*int64(shards) {
		t.Fatalf("coordinator counters off: queries %d fan-outs %d", st.Queries, st.FanOuts)
	}

	// Protocol rejections at the shard endpoint: malformed body, unknown
	// kind, foreign index on a pinned process.
	post := func(s *server, body string) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/shard/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleShardQuery(rec, req)
		return rec
	}
	if rec := post(shardProc, `{"shard":0,"kind":`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed sub-query answered %d, want 400", rec.Code)
	}
	if rec := post(shardProc, `{"shard":0,"kind":"knn","node":1,"k":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("knn sub-query answered %d, want 400 (never fans out)", rec.Code)
	}
	if rec := post(shardProc, `{"shard":99,"kind":"rnn","node":1,"k":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("out-of-range shard answered %d, want 400", rec.Code)
	}
	pinned := env.shardedServer(t, &graphrnn.ShardOptions{
		Shards: shards, Seed: 9, Sites: env.sites,
	}, "shard 2", 2)
	if rec := post(pinned, `{"shard":0,"kind":"rnn","node":1,"k":1}`); rec.Code != http.StatusBadRequest {
		t.Errorf("misrouted sub-query answered %d, want 400", rec.Code)
	}
	if rec := post(pinned, `{"shard":2,"kind":"rnn","node":1,"k":1}`); rec.Code != http.StatusOK {
		t.Errorf("matching sub-query answered %d, want 200", rec.Code)
	}
}

// TestShardQueryDeadlineCounted: a sub-query its deadline cuts short still
// answers the 200 envelope, and /stats counts it the way it counts a /query
// batch entry: an error and a timeout, not a query served.
func TestShardQueryDeadlineCounted(t *testing.T) {
	env := newShardedTestEnv(t)
	shardProc := env.shardedServer(t, &graphrnn.ShardOptions{Shards: 2, Seed: 9}, "shard", -1)
	served, errs, timeouts := shardProc.served.Load(), shardProc.errors.Load(), shardProc.timeouts.Load()
	req := httptest.NewRequest(http.MethodPost, "/shard/query",
		strings.NewReader(`{"shard":0,"kind":"rnn","node":5,"k":2,"timeout_ns":1}`))
	rec := httptest.NewRecorder()
	shardProc.handleShardQuery(rec, req)
	var resp shardWireResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.ErrorKind != "deadline" {
		t.Fatalf("1ns sub-query answered %d %s (%v), want a 200 envelope with error_kind deadline", rec.Code, rec.Body.String(), err)
	}
	if d := [3]int64{shardProc.served.Load() - served, shardProc.errors.Load() - errs, shardProc.timeouts.Load() - timeouts}; d != [3]int64{0, 1, 1} {
		t.Fatalf("served / errors / timeouts moved by %v, want [0 1 1]", d)
	}
}

// TestShardWireBudgetShare: a coordinator over remote shards sends each
// peer its share of the query's budget, not the whole of it — the I/O
// budget too, since each peer meters reads on a pool of its own.
func TestShardWireBudgetShare(t *testing.T) {
	env := newShardedTestEnv(t)
	const shards = 2
	shardProc := env.shardedServer(t, &graphrnn.ShardOptions{Shards: shards, Seed: 9}, "shard", -1)
	var mu sync.Mutex
	var bodies []shardWireRequest
	record := func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		var req shardWireRequest
		if err := json.Unmarshal(data, &req); err != nil {
			t.Errorf("sub-query body %q: %v", data, err)
		}
		mu.Lock()
		bodies = append(bodies, req)
		mu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(data))
		shardProc.handleShardQuery(w, r)
	}
	peers := make([]string, shards)
	for i := range peers {
		ts := httptest.NewServer(http.HandlerFunc(record))
		defer ts.Close()
		peers[i] = ts.URL
	}
	coord := env.shardedServer(t, &graphrnn.ShardOptions{
		Shards: shards, Seed: 9, Runner: newHTTPShardRunner(peers),
	}, "coordinator", -1)
	const budget = 1 << 20
	q := graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.NodeLocation(11), K: 2}
	q.Budget = graphrnn.Budget{MaxNodes: budget, MaxIOReads: budget}
	if _, err := coord.sharded.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != shards {
		t.Fatalf("%d sub-queries crossed the wire, want %d", len(bodies), shards)
	}
	for _, b := range bodies {
		if b.MaxNodes != budget/shards || b.MaxIOReads != budget/shards {
			t.Errorf("shard %d got max_nodes %d, max_io_reads %d; want %d of the query's %d each",
				b.Shard, b.MaxNodes, b.MaxIOReads, budget/shards, budget)
		}
	}
}

// TestShardWireCodec unit-tests the wire mapping: query round trips,
// substrate-bound hints refusing to travel, and typed errors surviving
// encode/decode so errors.Is works across the process boundary.
func TestShardWireCodec(t *testing.T) {
	q := graphrnn.Query{
		Kind:   graphrnn.KindRNN,
		Target: graphrnn.NodeLocation(7),
		K:      3,
		Strict: true,
	}
	q.Timeout = 90 * time.Millisecond
	q.Budget = graphrnn.Budget{MaxNodes: 1000, MaxIOReads: 50}
	q.Algorithm = graphrnn.LazyEP()
	wire, err := encodeShardQuery(1, q)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Shard != 1 || wire.Kind != "rnn" || *wire.Node != 7 || wire.K != 3 ||
		!wire.Strict || wire.Algo != "lazy-ep" || wire.TimeoutNS != int64(90*time.Millisecond) ||
		wire.MaxNodes != 1000 || wire.MaxIOReads != 50 {
		t.Fatalf("encoded wire request wrong: %+v", wire)
	}
	s := &server{}
	back, err := wire.toQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != q.Kind || back.Target != q.Target || back.K != q.K ||
		!back.Strict || back.Timeout != q.Timeout || back.Budget != q.Budget ||
		back.Algorithm.String() != "lazy-EP" {
		t.Fatalf("round trip lost fields: %+v", back)
	}

	// Substrate-bound hints cannot travel.
	q.Algorithm = graphrnn.HubLabel(nil)
	if _, err := encodeShardQuery(0, q); err == nil {
		t.Fatal("hub-label hint crossed the wire")
	}
	// Edge targets cannot travel (node-resident serving).
	eq := graphrnn.Query{Kind: graphrnn.KindRNN, Target: graphrnn.EdgeLocation(1, 2, 0.5), K: 1}
	if _, err := encodeShardQuery(0, eq); err == nil {
		t.Fatal("edge target crossed the wire")
	}

	// Typed errors round trip by kind.
	for _, tc := range []struct {
		kind string
		base error
	}{
		{"deadline", graphrnn.ErrDeadlineExceeded},
		{"canceled", graphrnn.ErrCanceled},
		{"budget", graphrnn.ErrBudgetExceeded},
	} {
		if got := wireErrKind(fmt.Errorf("wrapped: %w", tc.base)); got != tc.kind {
			t.Errorf("wireErrKind(%v) = %q, want %q", tc.base, got, tc.kind)
		}
		err := decodeWireError(&shardWireResponse{Error: "shard says no", ErrorKind: tc.kind})
		if !errors.Is(err, tc.base) {
			t.Errorf("decoded %q error does not unwrap to %v", tc.kind, tc.base)
		}
		if err.Error() != "shard says no" {
			t.Errorf("decoded error lost the remote message: %q", err.Error())
		}
	}
	if err := decodeWireError(&shardWireResponse{Error: "hard failure"}); err == nil || graphrnn.IsExecErr(err) {
		t.Errorf("hard remote error decoded as %v", err)
	}
	if err := decodeWireError(&shardWireResponse{}); err != nil {
		t.Errorf("empty envelope decoded error %v", err)
	}
}

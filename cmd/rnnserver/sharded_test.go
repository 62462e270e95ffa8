package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"graphrnn"
)

// shardedTestEnv is the shared serving substrate of the sharded server
// tests: one graph and one global point/site set, from which both an
// unsharded oracle server and in-process sharded servers are built — all
// read-only, so they can share the DB.
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
	return &server{db: e.db, ps: e.ps, sites: e.sites, family: "grid", started: time.Now()}
}

func (e *shardedTestEnv) shardedServer(t *testing.T, opt *graphrnn.ShardOptions) *server {
	t.Helper()
	sh, err := e.db.Shard(e.ps, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return &server{
		db: e.db, ps: e.ps, sites: e.sites, family: "grid", started: time.Now(),
		sharded: sh,
	}
}

// TestHandleQuerySharded drives POST /query through an in-process
// sharded server and checks every answer against the unsharded oracle,
// plus the sharded-mode serving contract: 504 on unmeetable deadlines,
// 400 on substrate hints, the /stats shards section, and disabled
// maintenance.
func TestHandleQuerySharded(t *testing.T) {
	env := newShardedTestEnv(t)
	oracle := env.oracleServer()
	s := env.shardedServer(t, &graphrnn.ShardOptions{
		Shards: 4, Seed: 5, Sites: env.sites, HubLabelK: 4,
	})
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

	// The substrate hints name no substrate a sharded server could hand
	// over: each shard's planner picks eager-M from its own lists, and the
	// coordinator's index answers auto queries. Both are a 400 that says
	// so, not advice to restart with -maxk or to build an index.
	for _, algo := range []string{"eager-m", "hub-label"} {
		body := `{"kind":"rnn","node":5,"k":2,"algo":"` + algo + `"}`
		rec, out := postQuery(t, s, "/query", body)
		if msg := fmt.Sprint(out["error"]); rec.Code != http.StatusBadRequest || !strings.Contains(msg, "sharded mode") {
			t.Fatalf("%s answered %d %q, want a 400 naming sharded mode", body, rec.Code, msg)
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
	if shs["shards"] != float64(4) {
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

package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphrnn"
)

// newTestServer builds a small in-memory serving stack: grid graph, data
// set, site set, materialization and hub-label index, so every kind and
// substrate is reachable through POST /query.
func newTestServer(t *testing.T) *server {
	t.Helper()
	g, err := graphrnn.GenerateGrid(11, 400, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(12, 40)
	if err != nil {
		t.Fatal(err)
	}
	sites, err := db.PlaceRandomNodePoints(13, 8)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := db.BuildHubLabelIndex(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := &server{db: db, ps: ps, sites: sites, mat: mat, family: "grid", started: time.Now()}
	srv.hub.Store(idx)
	return srv
}

// closeLeakFree registers the end-of-test leak check of the server's two
// leakable resources: close() must find no tenant left in the pool, and the
// goroutine count must come back to what it is now.
func closeLeakFree(t *testing.T, s *server) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		if err := s.close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if g := runtime.NumGoroutine(); g > before+2 {
			t.Errorf("goroutines leaked: %d before, %d after", before, g)
		}
	})
}

func postQuery(t *testing.T, s *server, target, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.handleQuery(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("response is not JSON (%v): %s", err, rec.Body.String())
	}
	return rec, out
}

// TestHandleQuery covers the unified endpoint: every kind through one
// schema, the planner echo, batch arrays, and typed client errors.
func TestHandleQuery(t *testing.T) {
	s := newTestServer(t)

	// Auto-planned RNN: the attached hub-label index must win and the
	// response must say so.
	rec, out := postQuery(t, s, "/query", `{"kind":"rnn","node":5,"k":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("rnn: code %d: %v", rec.Code, out)
	}
	plan, _ := out["plan"].(map[string]any)
	if plan == nil || plan["algorithm"] != "hub-label" {
		t.Fatalf("auto plan did not pick the attached hub-label index: %v", out["plan"])
	}

	// Bichromatic: the hub index tracks the data set, not the sites, so an
	// explicit hub-label hint must fall back (and be reported as such).
	rec, out = postQuery(t, s, "/query", `{"kind":"bichromatic","node":5,"k":1,"algo":"hub-label"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("bichromatic: code %d: %v", rec.Code, out)
	}
	plan, _ = out["plan"].(map[string]any)
	if plan == nil || plan["fallback"] != true {
		t.Fatalf("hub hint over foreign sites did not fall back: %v", out["plan"])
	}

	// Continuous and knn through the same schema.
	if rec, out = postQuery(t, s, "/query", `{"kind":"continuous","route":[1,2,3],"k":1}`); rec.Code != http.StatusOK {
		t.Fatalf("continuous: code %d: %v", rec.Code, out)
	}
	rec, out = postQuery(t, s, "/query", `{"kind":"knn","node":7,"k":3}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("knn: code %d: %v", rec.Code, out)
	}
	if nbrs, _ := out["neighbors"].([]any); len(nbrs) != 3 {
		t.Fatalf("knn returned %v neighbors, want 3", out["neighbors"])
	}

	// Batch = JSON array; per-entry results with plans, worker count.
	rec, out = postQuery(t, s, "/query?parallelism=2",
		`[{"node":1,"k":1},{"kind":"knn","node":2,"k":1},{"node":99999,"k":1}]`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: code %d: %v", rec.Code, out)
	}
	results, _ := out["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(results))
	}
	if out["failed"] != float64(1) {
		t.Fatalf("batch failed=%v, want 1 (out-of-range node)", out["failed"])
	}

	// Typed client errors: malformed JSON, unknown field, unknown kind,
	// missing target, bad timeout — all 400.
	for _, bad := range []string{
		`{"kind":"rnn","node":`,
		`{"nodee":5}`,
		`{"kind":"voronoi","node":5}`,
		`{"kind":"rnn","k":1}`,
		`{"kind":"rnn","node":5,"timeout":"-3s"}`,
		`[{"node":1},{"kind":"???"}]`,
		``,
	} {
		rec, _ := postQuery(t, s, "/query", bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("body %q answered %d, want 400", bad, rec.Code)
		}
	}

	// GET is not allowed.
	req := httptest.NewRequest(http.MethodGet, "/query", nil)
	rec2 := httptest.NewRecorder()
	s.handleQuery(rec2, req)
	if rec2.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query answered %d, want 405", rec2.Code)
	}

	// An unmeetable per-entry deadline answers 504.
	rec, _ = postQuery(t, s, "/query", `{"kind":"rnn","node":5,"k":2,"algo":"eager","timeout":"1ns"}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("1ns deadline answered %d, want 504", rec.Code)
	}

	// The planner counters feed /stats.
	snap := s.planner.snapshot()
	dec, _ := snap["decisions"].(map[string]int64)
	if dec["hub-label"] == 0 {
		t.Fatalf("planner counters did not record the hub-label decisions: %v", snap)
	}
	if snap["fallbacks"].(int64) == 0 {
		t.Fatalf("planner counters did not record the fallback: %v", snap)
	}
}

// TestBatchEntryFailuresCounted: an entry of a /query array that fails lands
// in its result slot of a 200, and /stats must still see it — query_errors
// for every failed entry, query_timeouts for the ones that hit a deadline.
func TestBatchEntryFailuresCounted(t *testing.T) {
	s := newTestServer(t)
	counters := func() (errs, timeouts float64) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("/stats is not JSON (%v): %s", err, rec.Body.String())
		}
		return out["query_errors"].(float64), out["query_timeouts"].(float64)
	}
	errs0, timeouts0 := counters()
	rec, out := postQuery(t, s, "/query",
		`[{"node":1,"k":1},{"node":5,"k":2,"algo":"eager","timeout":"1ns"},{"node":99999,"k":1}]`)
	if rec.Code != http.StatusOK || out["succeeded"] != float64(1) || out["failed"] != float64(2) {
		t.Fatalf("batch answered %d: %v", rec.Code, out)
	}
	errs, timeouts := counters()
	if errs-errs0 != 2 || timeouts-timeouts0 != 1 {
		t.Fatalf("query_errors moved by %v, query_timeouts by %v; want 2 and 1", errs-errs0, timeouts-timeouts0)
	}
}

// TestServerCloseReportsLeakedTenant: a substrate attached to the server's
// pool that close() does not know about — here a paged hub index nobody
// stored — outlives it, and close() says so by the tenant's name.
func TestServerCloseReportsLeakedTenant(t *testing.T) {
	s := newTestServer(t)
	stray, err := s.db.BuildHubLabelIndex(s.ps, 2, &graphrnn.HubLabelOptions{DiskBacked: true})
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	if err := s.close(); err == nil || !strings.Contains(err.Error(), "hublabel") {
		t.Fatalf("close with a stray hub index attached = %v, want the leaked tenant named", err)
	}
}

// TestStatsJSONKeyOrder pins the /stats rendering contract: every JSON
// object in the body serializes its keys in sorted order, run to run —
// the sections come from Go maps, so this is encoding/json's key sort —
// and a server that has answered nothing renders its planner decisions as
// an empty object, not null.
func TestStatsJSONKeyOrder(t *testing.T) {
	s := newTestServer(t)
	idle := httptest.NewRecorder()
	s.handleStats(idle, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if !strings.Contains(idle.Body.String(), `"decisions":{}`) {
		t.Fatalf("an idle server's planner decisions are not {}: %s", idle.Body.String())
	}
	// Populate the planner counters with more than one decision kind.
	postQuery(t, s, "/query", `{"kind":"rnn","node":5,"k":2}`)
	postQuery(t, s, "/query", `{"kind":"knn","node":7,"k":3}`)
	postQuery(t, s, "/query", `{"kind":"bichromatic","node":5,"k":1,"algo":"hub-label"}`)

	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	rec := httptest.NewRecorder()
	s.handleStats(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats answered %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.Bytes()
	var parsed map[string]any
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatalf("/stats is not JSON (%v): %s", err, body)
	}
	if _, ok := parsed["planner"]; !ok {
		t.Fatalf("/stats lost the planner section: %s", body)
	}
	checkSortedKeys(t, json.NewDecoder(strings.NewReader(rec.Body.String())), "")
}

// checkSortedKeys walks one JSON value off dec, failing the test when any
// object's keys are out of sorted order.
func checkSortedKeys(t *testing.T, dec *json.Decoder, path string) {
	t.Helper()
	tok, err := dec.Token()
	if err != nil {
		t.Fatalf("at %q: %v", path, err)
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return // scalar
	}
	switch delim {
	case '{':
		prev := ""
		for dec.More() {
			keyTok, err := dec.Token()
			if err != nil {
				t.Fatalf("at %q: %v", path, err)
			}
			key := keyTok.(string)
			if key < prev {
				t.Errorf("at %q: key %q serialized after %q (not sorted)", path, key, prev)
			}
			prev = key
			checkSortedKeys(t, dec, path+"/"+key)
		}
		dec.Token() // closing }
	case '[':
		for i := 0; dec.More(); i++ {
			checkSortedKeys(t, dec, fmt.Sprintf("%s[%d]", path, i))
		}
		dec.Token() // closing ]
	}
}

// FuzzDecodeQuery drives arbitrary bodies through the /query decoding and
// planning pipeline: it must never panic, and every rejection must be a
// client error (the handler's typed 400), never a silent success over a
// half-parsed request.
func FuzzDecodeQuery(f *testing.F) {
	f.Add([]byte(`{"kind":"rnn","node":5,"k":2}`))
	f.Add([]byte(`{"kind":"bichromatic","node":1,"k":1,"algo":"hub-label"}`))
	f.Add([]byte(`{"kind":"continuous","route":[1,2,3],"k":1,"timeout":"50ms"}`))
	f.Add([]byte(`{"kind":"knn","edge":{"u":1,"v":2,"pos":0.5},"k":3}`))
	f.Add([]byte(`[{"node":1},{"kind":"knn","node":2}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"kind":"rnn","node":1,"unknown":true}`))
	f.Add([]byte(`{`))
	// Ids beyond 32 bits must fail to decode, not wrap onto a valid node.
	f.Add([]byte(`{"kind":"rnn","node":4294967297,"k":1}`))
	f.Add([]byte(`{"kind":"continuous","route":[1,4294967298],"k":1}`))

	g, err := graphrnn.GenerateGrid(21, 64, 4)
	if err != nil {
		f.Fatal(err)
	}
	db, err := graphrnn.Open(g, nil)
	if err != nil {
		f.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(22, 10)
	if err != nil {
		f.Fatal(err)
	}
	sites, err := db.PlaceRandomNodePoints(23, 4)
	if err != nil {
		f.Fatal(err)
	}
	s := &server{db: db, ps: ps, sites: sites, family: "grid", started: time.Now()}

	f.Fuzz(func(t *testing.T, data []byte) {
		reqs, _, err := decodeQueryBody(data)
		if err != nil {
			return // typed 400
		}
		for _, r := range reqs {
			q, err := r.toQuery(s, nil)
			if err != nil {
				continue // typed 400
			}
			// The engine must validate whatever the decoder accepted
			// without panicking; errors here answer per-entry.
			if _, err := db.Plan(q); err != nil {
				continue
			}
		}
	})
}

// TestHandleMaintenance covers the materialization maintenance endpoints:
// insert + delete round trip, the hub-label index repairing in place on
// mutation, an unmeetable deadline answering 504 with nothing applied,
// and queries staying correct throughout.
func TestHandleMaintenance(t *testing.T) {
	s := newTestServer(t)

	post := func(target, body string) (*httptest.ResponseRecorder, map[string]any) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
		rec := httptest.NewRecorder()
		switch {
		case strings.HasPrefix(target, "/mat/insert"):
			s.handleMatInsert(rec, req)
		default:
			s.handleMatDelete(rec, req)
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("response is not JSON (%v): %s", err, rec.Body.String())
		}
		return rec, out
	}

	// Find a free node.
	free := -1
	for n := 0; n < s.db.Graph().NumNodes(); n++ {
		if _, taken := s.ps.PointAt(graphrnn.NodeID(n)); !taken {
			free = n
			break
		}
	}
	before := s.ps.Len()

	// An unmeetable deadline answers 504 and applies nothing.
	rec, _ := post("/mat/insert?timeout=1ns", `{"node":`+strconv.Itoa(free)+`}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("1ns insert answered %d, want 504", rec.Code)
	}
	if s.ps.Len() != before {
		t.Fatal("abandoned insert mutated the point set")
	}
	if s.hub.Load() == nil {
		t.Fatal("abandoned insert dropped the hub-label index")
	}

	// A successful insert places the point, reports a clean repair state,
	// and repairs the hub-label index in place — no drop, no rebuild.
	rec, out := post("/mat/insert", `{"node":`+strconv.Itoa(free)+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("insert answered %d: %v", rec.Code, out)
	}
	if out["repair_state"] != "clean" {
		t.Fatalf("repair_state = %v, want clean", out["repair_state"])
	}
	if out["hub_label_repaired"] != true {
		t.Fatalf("hub_label_repaired = %v, want true", out["hub_label_repaired"])
	}
	if out["hub_label_dropped"] != nil || out["hub_label_rebuilt"] != nil {
		t.Fatalf("insert reported drop/rebuild: %v", out)
	}
	if s.hub.Load() == nil {
		t.Fatal("repaired hub-label index was detached")
	}
	if got := s.hubRepairs.Load(); got != 1 {
		t.Fatalf("hubRepairs = %d, want 1", got)
	}
	p := int(out["point"].(float64))

	// Queries after maintenance agree with brute force — served through
	// the repaired hub-label index, not a fallback.
	rec2, qout := postQuery(t, s, "/query", `{"kind":"rnn","node":3,"k":2}`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("query after insert answered %d: %v", rec2.Code, qout)
	}
	rec2, bout := postQuery(t, s, "/query", `{"kind":"rnn","node":3,"k":2,"algo":"brute"}`)
	if rec2.Code != http.StatusOK {
		t.Fatalf("brute query answered %d: %v", rec2.Code, bout)
	}
	if fmt.Sprint(qout["points"]) != fmt.Sprint(bout["points"]) {
		t.Fatalf("post-maintenance query = %v, brute = %v", qout["points"], bout["points"])
	}

	// Delete the point again; the index repairs in place once more.
	rec, out = post("/mat/delete", `{"point":`+strconv.Itoa(p)+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("delete answered %d: %v", rec.Code, out)
	}
	if s.ps.Len() != before {
		t.Fatalf("point count = %d after round trip, want %d", s.ps.Len(), before)
	}
	if out["hub_label_repaired"] != true {
		t.Fatalf("delete: hub_label_repaired = %v, want true", out["hub_label_repaired"])
	}
	if got := s.hubRepairs.Load(); got != 2 {
		t.Fatalf("hubRepairs after round trip = %d, want 2", got)
	}

	// Client errors: malformed body, nonexistent point, bad method.
	if rec, _ := post("/mat/insert", `{"node":`); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed insert answered %d, want 400", rec.Code)
	}
	if rec, _ := post("/mat/delete", `{"point":999999}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("nonexistent point answered %d, want 400", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/mat/insert", nil)
	rec3 := httptest.NewRecorder()
	s.handleMatInsert(rec3, req)
	if rec3.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /mat/insert answered %d, want 405", rec3.Code)
	}

	// Without a materialization the endpoints answer 503.
	s2 := &server{db: s.db, ps: s.ps, family: "grid", started: time.Now()}
	req = httptest.NewRequest(http.MethodPost, "/mat/insert", strings.NewReader(`{"node":1}`))
	rec3 = httptest.NewRecorder()
	s2.handleMatInsert(rec3, req)
	if rec3.Code != http.StatusServiceUnavailable {
		t.Fatalf("maintenance without -maxk answered %d, want 503", rec3.Code)
	}
}

// TestMaintenanceRepairEquivalence is the repair-vs-rebuild oracle: a
// workload of inserts and deletes served entirely through the in-place
// hub-label repair must answer every query exactly like an index rebuilt
// from scratch over the final point set (and like brute force).
func TestMaintenanceRepairEquivalence(t *testing.T) {
	s := newTestServer(t)

	post := func(target, body string) map[string]any {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(body))
		rec := httptest.NewRecorder()
		switch {
		case strings.HasPrefix(target, "/mat/insert"):
			s.handleMatInsert(rec, req)
		default:
			s.handleMatDelete(rec, req)
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("%s answered %d: %s", target, rec.Code, rec.Body.String())
		}
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("response is not JSON (%v): %s", err, rec.Body.String())
		}
		if out["hub_label_repaired"] != true {
			t.Fatalf("%s did not repair in place: %v", target, out)
		}
		return out
	}

	// Insert five points on free nodes, then delete two of them and one
	// of the original points — exercising both repair directions.
	var inserted []int
	for n := 0; n < s.db.Graph().NumNodes() && len(inserted) < 5; n++ {
		if _, taken := s.ps.PointAt(graphrnn.NodeID(n)); taken {
			continue
		}
		out := post("/mat/insert", `{"node":`+strconv.Itoa(n)+`}`)
		inserted = append(inserted, int(out["point"].(float64)))
		n += 7
	}
	orig := -1
	for n := 0; n < s.db.Graph().NumNodes(); n++ {
		if p, taken := s.ps.PointAt(graphrnn.NodeID(n)); taken {
			skip := false
			for _, ip := range inserted {
				if int(p) == ip {
					skip = true
				}
			}
			if !skip {
				orig = int(p)
				break
			}
		}
	}
	for _, p := range append(inserted[:2:2], orig) {
		post("/mat/delete", `{"point":`+strconv.Itoa(p)+`}`)
	}
	if s.hubRepairFails.Load() != 0 || s.hubRebuilds.Load() != 0 {
		t.Fatalf("workload fell off the repair path: %d failures, %d rebuilds",
			s.hubRepairFails.Load(), s.hubRebuilds.Load())
	}

	// Answer a spread of RNN queries through the repaired index.
	type qk struct {
		node, k int
	}
	var queries []qk
	for n := 0; n < s.db.Graph().NumNodes(); n += 29 {
		queries = append(queries, qk{n, 1 + n%4})
	}
	ask := func(q qk, algo string) string {
		t.Helper()
		rec, out := postQuery(t, s, "/query",
			fmt.Sprintf(`{"kind":"rnn","node":%d,"k":%d,"algo":%q}`, q.node, q.k, algo))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s query %+v answered %d: %v", algo, q, rec.Code, out)
		}
		return fmt.Sprint(out["points"])
	}
	repairedAns := make(map[qk]string)
	for _, q := range queries {
		repairedAns[q] = ask(q, "hub")
	}

	// Rebuild from scratch over the final point set and re-ask.
	req := httptest.NewRequest(http.MethodPost, "/index/hublabel", strings.NewReader(`{"maxk":4}`))
	rec := httptest.NewRecorder()
	s.handleHubBuild(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("rebuild answered %d: %s", rec.Code, rec.Body.String())
	}
	for _, q := range queries {
		if fresh := ask(q, "hub"); fresh != repairedAns[q] {
			t.Fatalf("query %+v: repaired index answered %s, fresh rebuild %s", q, repairedAns[q], fresh)
		}
		if brute := ask(q, "brute"); brute != repairedAns[q] {
			t.Fatalf("query %+v: repaired index answered %s, brute force %s", q, repairedAns[q], brute)
		}
	}
}

// TestHugeMaxKKeepsServing: a POST /index/hublabel whose maxk no point set
// can reach (2^62) must not wedge the server. Its build used to panic while
// holding the query lock; net/http recovered the handler and nobody released
// the lock, so the next /mat/insert waited forever and every query queued
// behind that writer. The build now succeeds, and every section of the
// server lock is released by defer besides.
func TestHugeMaxKKeepsServing(t *testing.T) {
	s := newTestServer(t)
	closeLeakFree(t, s)
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/mat/insert", s.handleMatInsert)
	mux.HandleFunc("/index/hublabel", s.handleHubBuild)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		if !t.Failed() { // Close would wait on a wedged handler for good
			ts.Close()
		}
	})
	client := &http.Client{Timeout: 5 * time.Second}
	post := func(path, body string) (int, map[string]any, error) {
		resp, err := client.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out, err
	}
	must := func(path, body string) map[string]any {
		t.Helper()
		code, out, err := post(path, body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("%s %s after the maxk request: %d %v %v", path, body, code, out, err)
		}
		return out
	}

	buildCode, build, buildErr := post("/index/hublabel", `{"maxk":4611686018427387904}`)
	free := -1
	for n := 0; free < 0; n++ {
		if _, taken := s.ps.PointAt(graphrnn.NodeID(n)); !taken {
			free = n
		}
	}
	if out := must("/mat/insert", fmt.Sprintf(`{"node":%d}`, free)); out["hub_label_repaired"] != true {
		t.Fatalf("insert did not repair the index: %v", out)
	}
	hub := must("/query", `{"kind":"rnn","node":5,"k":2,"algo":"hub-label"}`)
	brute := must("/query", `{"kind":"rnn","node":5,"k":2,"algo":"brute"}`)
	if fmt.Sprint(hub["points"]) != fmt.Sprint(brute["points"]) {
		t.Fatalf("hub-label answered %v, brute force %v", hub["points"], brute["points"])
	}
	if buildErr != nil || buildCode != http.StatusOK || build["maxk"] != float64(1<<62) {
		t.Fatalf("maxk 2^62 build answered %d: %v %v", buildCode, build, buildErr)
	}
}

// TestQueryResponseWireBytes pins a /query response byte for byte against
// the encoding the server produced before graphrnn.Stats carried the wire's
// JSON tags itself (it was copied field by field into a server-side struct):
// nine "stats" keys, their names and their order. The hub-label row's
// label_entries follows the landmark order: 67 under the centrality order,
// 78 since the elimination order — a graph this small is not what that order
// is for (it halves the labels of a 20K road map). The eager-M row's
// counters follow its tie handling: 5 verifications while a relative 1e-11
// slack shrank every "strictly closer" bound, 2 since distances are exact
// on the graph's quantum and a candidate whose radius equals the query's
// distance needs none. The heap counters of both expansion rows include
// the main walk's own queue traffic (31 pushes and 31 pops of it), which
// Stats once dropped.
func TestQueryResponseWireBytes(t *testing.T) {
	s := newTestServer(t)
	for body, want := range map[string]string{
		`{"kind":"rnn","node":5,"k":2,"algo":"eager"}`:     `{"kind":"rnn","k":2,"points":[4,9,17,33,38],"stats":{"nodes_expanded":31,"nodes_scanned":726,"range_nn":31,"verifications":7,"mat_reads":0,"label_reads":0,"label_entries":0,"heap_pushes":981,"heap_pops":767},"plan":{"algorithm":"eager","fallback":false,"reason":"explicit algorithm"}}`,
		`{"kind":"rnn","node":5,"k":2,"algo":"hub-label"}`: `{"kind":"rnn","k":2,"points":[4,9,17,33,38],"stats":{"nodes_expanded":0,"nodes_scanned":0,"range_nn":0,"verifications":0,"mat_reads":0,"label_reads":1,"label_entries":78,"heap_pushes":0,"heap_pops":0},"plan":{"algorithm":"hub-label","fallback":false,"reason":"explicit algorithm"}}`,
		`{"kind":"rnn","node":5,"k":2,"algo":"eager-m"}`:   `{"kind":"rnn","k":2,"points":[4,9,17,33,38],"stats":{"nodes_expanded":31,"nodes_scanned":103,"range_nn":0,"verifications":2,"mat_reads":38,"label_reads":0,"label_entries":0,"heap_pushes":183,"heap_pops":136},"plan":{"algorithm":"eager-M","fallback":false,"reason":"explicit algorithm"}}`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.handleQuery(rec, req)
		if got := strings.TrimSpace(rec.Body.String()); got != want {
			t.Errorf("%s answered\n%s\nwant\n%s", body, got, want)
		}
	}
}

// TestHubRebuildReleasesPoolTenant: replacing the served hub-label index —
// POST /index/hublabel, three times, with paged labels — must
// retire the index it replaces. Each index holds a "hublabel" tenant of the
// shared pool and 64 pages of elastic capacity; before the retirement each
// rebuild left both behind.
func TestHubRebuildReleasesPoolTenant(t *testing.T) {
	s := newTestServer(t)
	s.hubOpts = graphrnn.HubLabelOptions{DiskBacked: true}
	pool := func() (tenants int, capacity float64) {
		t.Helper()
		rec := httptest.NewRecorder()
		s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var out struct {
			Pool struct {
				Capacity float64          `json:"capacity"`
				Tenants  []map[string]any `json:"tenants"`
			} `json:"pool"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("/stats is not JSON (%v): %s", err, rec.Body.String())
		}
		return len(out.Pool.Tenants), out.Pool.Capacity
	}
	rebuild := func() {
		t.Helper()
		rec := httptest.NewRecorder()
		s.handleHubBuild(rec, httptest.NewRequest(http.MethodPost, "/index/hublabel", strings.NewReader(`{"maxk":4}`)))
		if rec.Code != http.StatusOK {
			t.Fatalf("rebuild answered %d: %s", rec.Code, rec.Body.String())
		}
	}
	rebuild() // the first build replaces the unpaged test index: from here on every index is paged
	tenants, capacity := pool()
	for i := 0; i < 3; i++ {
		rebuild()
		if nt, nc := pool(); nt != tenants || nc != capacity {
			t.Fatalf("rebuild %d: pool has %d tenants / capacity %v, want %d / %v", i+1, nt, nc, tenants, capacity)
		}
	}
	// The retired indexes are gone, the served one answers.
	rec, out := postQuery(t, s, "/query", `{"kind":"rnn","node":5,"k":2,"algo":"hub-label"}`)
	if rec.Code != http.StatusOK || fmt.Sprint(out["points"]) != "[4 9 17 33 38]" {
		t.Fatalf("query after rebuilds answered %d: %v", rec.Code, out)
	}
}

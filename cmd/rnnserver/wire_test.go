package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"graphrnn"
)

// post drives one handler with a body and returns the status.
func post(h http.HandlerFunc, target, body string) int {
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
	return rec.Code
}

// TestWireIDsOutOfRange: an id beyond 32 bits is a 400 on every endpoint
// that takes one, and changes nothing. (Decoded into int and converted, it
// used to wrap: node 2^32+1 answered with node 1's members, and an insert
// on node 2^32 committed a point on node 0.)
func TestWireIDsOutOfRange(t *testing.T) {
	s := newTestServer(t)
	env := newShardedTestEnv(t)
	sh := env.shardedServer(t, &graphrnn.ShardOptions{Shards: 2, Seed: 7}, "in-process", -1)
	if _, taken := s.ps.PointAt(0); taken {
		t.Fatal("node 0 hosts a point; the insert case needs it free")
	}
	before := s.ps.Len()
	for _, c := range []struct {
		name    string
		handler http.HandlerFunc
		target  string
		body    string
	}{
		{"query node", s.handleQuery, "/query", `{"node":4294967297}`},
		{"query node in a batch", s.handleQuery, "/query", `[{"node":1},{"node":4294967297}]`},
		{"query negative node", s.handleQuery, "/query", `{"node":-4294967295}`},
		{"query route", s.handleQuery, "/query", `{"kind":"continuous","route":[1,4294967298]}`},
		{"query edge", s.handleQuery, "/query", `{"kind":"knn","edge":{"u":4294967296,"v":4294967297,"pos":0.5}}`},
		{"mat insert", s.handleMatInsert, "/mat/insert", `{"node":4294967296}`},
		{"mat delete", s.handleMatDelete, "/mat/delete", `{"point":4294967296}`},
		{"shard query node", sh.handleShardQuery, "/shard/query", `{"shard":0,"kind":"rnn","node":4294967297,"k":1}`},
		{"shard query route", sh.handleShardQuery, "/shard/query", `{"shard":0,"kind":"continuous","route":[4294967297],"k":1}`},
	} {
		if code := post(c.handler, c.target, c.body); code != http.StatusBadRequest {
			t.Errorf("%s: %s answered %d, want 400", c.name, c.body, code)
		}
	}
	if _, taken := s.ps.PointAt(0); taken || s.ps.Len() != before {
		t.Fatalf("rejected requests changed the point set: %d points (was %d), node 0 taken: %v", s.ps.Len(), before, taken)
	}
}

// TestMaintenanceBodiesBoundedAndStrict: /mat/insert, /mat/delete and
// /index/hublabel decode like /query — 413 over the body limit, 400 on an
// unknown field or trailing data — and a rejected body changes nothing.
func TestMaintenanceBodiesBoundedAndStrict(t *testing.T) {
	s := newTestServer(t)
	before := s.ps.Len()
	huge := strings.Repeat(" ", maxQueryBody+1)
	for _, ep := range []struct {
		target  string
		handler http.HandlerFunc
		valid   string
	}{
		{"/mat/insert", s.handleMatInsert, `{"node":0}`},
		{"/mat/delete", s.handleMatDelete, `{"point":0}`},
		{"/index/hublabel", s.handleHubBuild, `{"maxk":2}`},
	} {
		for _, c := range []struct {
			name, body string
			want       int
		}{
			{"over the limit", huge + ep.valid, http.StatusRequestEntityTooLarge},
			{"unknown field", strings.Replace(ep.valid, `}`, `,"nodee":1}`, 1), http.StatusBadRequest},
			{"trailing data", ep.valid + ` {}`, http.StatusBadRequest},
			{"not JSON", `{`, http.StatusBadRequest},
		} {
			if code := post(ep.handler, ep.target, c.body); code != c.want {
				t.Errorf("%s %s: answered %d, want %d", ep.target, c.name, code, c.want)
			}
		}
	}
	if s.ps.Len() != before {
		t.Fatalf("rejected bodies changed the point set: %d points, was %d", s.ps.Len(), before)
	}
	// An empty body still builds the default index.
	if code := post(s.handleHubBuild, "/index/hublabel", ""); code != http.StatusOK {
		t.Fatalf("/index/hublabel with no body answered %d, want 200", code)
	}
}

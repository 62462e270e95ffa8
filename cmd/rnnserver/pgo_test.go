package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"graphrnn"
)

// BenchmarkServeMix generates default.pgo, the CPU profile `go build`
// compiles rnnserver against (-pgo=auto):
//
//	go test ./cmd/rnnserver -run '^$' -bench '^BenchmarkServeMix$' -benchtime 1x -cpu 1 -cpuprofile cmd/rnnserver/default.pgo
//
// It serves the benchmark's traffic (bench/workload.go) the way rnnserver
// does: road-20K (seed 2006, density 0.01) behind the real routes, driven
// over one keep-alive loopback connection a server. Two servers run, as
// main builds them:
//   - -disk -buffer 32 -maxk 4 on clustered pages, serving expand_cold's
//     seven classes;
//   - -hublabel 4 -maxk 4, serving hub_point's rnn / continuous mix and
//     then mixed_rw's reads with its inserts and deletes between them.
//
// The targets come from seeds of its own, not from the benchmark's panel.
// Any response but 200 fails it, and about mixChecks answers a mix are
// checked against "algo":"brute" on the same server, so the profile records no
// error path. The expand_cold mix is sized to hold about nine tenths of
// the CPU samples, set-up included: the eager range-NN probe loop is what
// the profile is for, and a profile that spread its samples wider read
// less on expand_cold. pprof labels ("mix") split the samples by phase:
// `go tool pprof -tags cmd/rnnserver/default.pgo`.
func BenchmarkServeMix(b *testing.B) {
	var disk, hub *mixServer
	pprof.Do(context.Background(), pprof.Labels("mix", "setup"), func(context.Context) {
		g, err := graphrnn.GenerateRoadNetwork(mixSeed, mixNodes)
		if err != nil {
			b.Fatal(err)
		}
		disk = newMixServer(b, g, &graphrnn.Options{DiskBacked: true, BufferPages: 32}, 0)
		hub = newMixServer(b, g, nil, 4)
	})
	for b.Loop() {
		for _, m := range []struct {
			name   string
			srv    *mixServer
			mix    []mixClass
			n      int
			seed   int64
			writes int // reads between two writes; 0 writes nothing
		}{
			{"expand_cold", disk, expandColdMix, 3600, 8101, 0},
			{"hub_point", hub, hubPointMix, 4000, 8102, 0},
			{"mixed_rw", hub, mixedRWMix, 2000, 8103, 500},
		} {
			pprof.Do(context.Background(), pprof.Labels("mix", m.name), func(context.Context) {
				m.srv.drive(b, m.mix, m.n, m.seed, m.writes)
			})
		}
	}
}

// The benchmark's dataset: bench/dataset.go's road network.
const (
	mixNodes   = 20000
	mixSeed    = 2006
	mixDensity = 0.01
	// mixChecks is how many answers of a mix are checked against brute
	// force, which would otherwise fill the hub mixes' samples.
	mixChecks = 10
)

// mixClass is one row of a traffic mix: bench/workload.go's class table.
type mixClass struct {
	kind, algo string
	share      float64
	ks         []int
	route      int // continuous queries' route length
}

var (
	expandColdMix = []mixClass{
		{kind: "rnn", algo: "eager", share: 0.35, ks: []int{1, 2}},
		{kind: "rnn", algo: "lazy-ep", share: 0.20, ks: []int{1, 2}},
		{kind: "rnn", algo: "lazy", share: 0.10, ks: []int{1}},
		{kind: "rnn", share: 0.15, ks: []int{1, 2, 4}},
		{kind: "bichromatic", algo: "lazy-ep", share: 0.02, ks: []int{1}},
		{kind: "continuous", algo: "eager", share: 0.10, ks: []int{1, 2}, route: 8},
		{kind: "knn", share: 0.08, ks: []int{4}},
	}
	hubPointMix = []mixClass{
		{kind: "rnn", share: 0.85, ks: []int{1, 2, 4}},
		{kind: "continuous", share: 0.15, ks: []int{1, 2, 4}, route: 4},
	}
	mixedRWMix = []mixClass{{kind: "rnn", share: 1, ks: []int{1, 2, 4}}}
)

// mixServer is one rnnserver's state and routes. Each mix serves them on
// a listener of its own, started under the mix's pprof label, so the
// server's goroutines carry it too.
type mixServer struct {
	srv *server
	mux *http.ServeMux
	url string
	// client holds the mix's one keep-alive connection.
	client *http.Client
}

// newMixServer sets a server up as main does for the dataset with
// -maxk 4, the given graph options, and -hublabel hubK.
func newMixServer(b *testing.B, g *graphrnn.Graph, opt *graphrnn.Options, hubK int) *mixServer {
	db, err := graphrnn.OpenWithLayout(g, opt, graphrnn.ClusteredLayout())
	if err != nil {
		b.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(mixSeed+1, int(mixDensity*float64(g.NumNodes())))
	if err != nil {
		b.Fatal(err)
	}
	s := &server{db: db, ps: ps, family: "road", started: time.Now()}
	s.hubOpts.Build.Workers = -1
	if s.sites, err = db.PlaceRandomNodePoints(mixSeed+2, ps.Len()/10); err != nil {
		b.Fatal(err)
	}
	if s.mat, err = db.MaterializeNodePoints(ps, 4, nil); err != nil {
		b.Fatal(err)
	}
	if hubK > 0 {
		idx, err := db.BuildHubLabelIndex(ps, hubK, &s.hubOpts)
		if err != nil {
			b.Fatal(err)
		}
		s.hub.Store(idx)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/mat/insert", s.handleMatInsert)
	mux.HandleFunc("/mat/delete", s.handleMatDelete)
	mux.HandleFunc("/index/hublabel", s.handleHubBuild)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/stats", s.handleStats)
	b.Cleanup(func() {
		if err := s.close(); err != nil {
			b.Error(err)
		}
	})
	return &mixServer{srv: s, mux: mux}
}

// post sends one request and returns the body of its 200 answer.
func (m *mixServer) post(b *testing.B, path string, body []byte) []byte {
	resp, err := m.client.Post(m.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("POST %s %s: %d %s %v", path, body, resp.StatusCode, out, err)
	}
	return out
}

// mixQuery is the wire form of one query, as the benchmark sends it.
type mixQuery struct {
	Kind  string `json:"kind"`
	Node  *int   `json:"node,omitempty"`
	Route []int  `json:"route,omitempty"`
	K     int    `json:"k"`
	Algo  string `json:"algo,omitempty"`
}

// drive sends n queries of the mix, each class's share of them in seeded
// random order, with a write after every writes-th when writes > 0: an
// insert on a free node, then the delete of what it placed, so the point
// set ends as it began.
func (m *mixServer) drive(b *testing.B, mix []mixClass, n int, seed int64, writes int) {
	ts := httptest.NewServer(m.mux)
	defer ts.Close()
	m.url, m.client = ts.URL, &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer m.client.CloseIdleConnections()
	rng := rand.New(rand.NewSource(seed))
	var classes []int
	for c, mc := range mix {
		for range int(mc.share*float64(n) + 0.5) {
			classes = append(classes, c)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	nodes := m.srv.db.Graph().NumNodes()
	var inserted *graphrnn.PointID
	for i, c := range classes {
		mc := &mix[c]
		q := mixQuery{Kind: mc.kind, Algo: mc.algo, K: mc.ks[i%len(mc.ks)]}
		if mc.route > 0 {
			for _, n := range m.srv.db.RandomWalkRoute(rng.Int63(), mc.route) {
				q.Route = append(q.Route, int(n))
			}
		} else {
			node := rng.Intn(nodes)
			q.Node = &node
		}
		body, err := json.Marshal(q)
		if err != nil {
			b.Fatal(err)
		}
		got := m.post(b, "/query", body)
		if q.Kind != "knn" && i%(n/mixChecks) == 0 {
			m.check(b, q, got)
		}
		if writes > 0 && i%writes == writes-1 {
			inserted = m.write(b, rng, inserted)
		}
	}
	if inserted != nil {
		m.write(b, rng, inserted)
	}
}

// check asks the server the same query of brute force and fails unless
// the two answers hold the same points.
func (m *mixServer) check(b *testing.B, q mixQuery, got []byte) {
	q.Algo = "brute"
	body, err := json.Marshal(q)
	if err != nil {
		b.Fatal(err)
	}
	var ans, want struct{ Points []int }
	if err := json.Unmarshal(got, &ans); err != nil {
		b.Fatal(err)
	}
	if err := json.Unmarshal(m.post(b, "/query", body), &want); err != nil {
		b.Fatal(err)
	}
	if !slices.Equal(ans.Points, want.Points) {
		b.Fatalf("%s answered %v, brute force %v", body, ans.Points, want.Points)
	}
}

// write is the mixed_rw writer's next operation: the delete of the point
// it placed last, or an insert on a random free node. It returns the
// point left placed, if any.
func (m *mixServer) write(b *testing.B, rng *rand.Rand, placed *graphrnn.PointID) *graphrnn.PointID {
	if placed != nil {
		m.post(b, "/mat/delete", fmt.Appendf(nil, `{"point":%d}`, *placed))
		return nil
	}
	for {
		node := graphrnn.NodeID(rng.Intn(m.srv.db.Graph().NumNodes()))
		if _, taken := m.srv.ps.PointAt(node); taken {
			continue
		}
		var resp matResponse
		if err := json.Unmarshal(m.post(b, "/mat/insert", fmt.Appendf(nil, `{"node":%d}`, node)), &resp); err != nil {
			b.Fatal(err)
		}
		if !resp.HubLabelRepaired {
			b.Fatalf("insert on node %d did not repair the hub-label index: %+v", node, resp)
		}
		return &resp.Point
	}
}

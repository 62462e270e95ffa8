package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"graphrnn"
)

// TestConcurrentServerNoDeadlock exercises the lock order documented on
// server: queries (planned, hinted, batched), maintenance pairs, two
// hub-label rebuilds and /stats run at once on a 2 000-node disk-backed
// server whose small buffer keeps the pool mutex busy. A deadlock fails by
// the watchdog, a data race by -race; afterwards the substrates must be
// clean and agree, and the server must close with no tenant and no goroutine
// left behind.
func TestConcurrentServerNoDeadlock(t *testing.T) {
	g, err := graphrnn.GenerateGrid(11, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, err := graphrnn.Open(g, &graphrnn.Options{DiskBacked: true, BufferPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := db.PlaceRandomNodePoints(12, 100)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := db.MaterializeNodePoints(ps, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{db: db, ps: ps, mat: mat, family: "grid", started: time.Now()}
	s.hubOpts = graphrnn.HubLabelOptions{DiskBacked: true} // paged labels: a pool tenant per index
	if _, err := s.buildHub(4); err != nil {
		t.Fatal(err)
	}
	closeLeakFree(t, s)
	basePoints := ps.Len()
	var free []int
	for n := 0; n < g.NumNodes() && len(free) < 8; n += 97 {
		if _, taken := ps.PointAt(graphrnn.NodeID(n)); !taken {
			free = append(free, n)
		}
	}

	// call serves one request and decodes a 200; anything else is an error.
	call := func(h http.HandlerFunc, method, target, body string, out any) error {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("%s %s %s answered %d: %s", method, target, body, rec.Code, rec.Body.String())
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(rec.Body.Bytes(), out)
	}
	var wg sync.WaitGroup
	worker := func(rounds int, step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := step(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	query := func(body func(i int) string) func(int) error {
		return func(i int) error { return call(s.handleQuery, http.MethodPost, "/query", body(i), nil) }
	}
	worker(40, query(func(i int) string { return fmt.Sprintf(`{"kind":"rnn","node":%d,"k":2}`, (i*131)%2000) }))
	worker(10, query(func(i int) string { return fmt.Sprintf(`{"kind":"rnn","node":%d,"k":2,"algo":"eager"}`, (i*173)%2000) }))
	worker(10, query(func(i int) string {
		return fmt.Sprintf(`[{"node":%d,"k":1},{"node":%d,"k":3,"algo":"lazy"},{"kind":"knn","node":%d,"k":2}]`,
			(i*61)%2000, (i*67)%2000, (i*71)%2000)
	}))
	worker(len(free), func(i int) error {
		var ins matResponse
		if err := call(s.handleMatInsert, http.MethodPost, "/mat/insert", fmt.Sprintf(`{"node":%d}`, free[i]), &ins); err != nil {
			return err
		}
		return call(s.handleMatDelete, http.MethodPost, "/mat/delete", fmt.Sprintf(`{"point":%d}`, ins.Point), nil)
	})
	worker(2, func(int) error {
		return call(s.handleHubBuild, http.MethodPost, "/index/hublabel", `{"maxk":4}`, nil)
	})
	worker(20, func(int) error { return call(s.handleStats, http.MethodGet, "/stats", "", nil) })

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		t.Fatal("server routes did not finish: deadlock (goroutines dumped above)")
	}
	if t.Failed() {
		return
	}

	var stats struct {
		Points int `json:"points"`
		Mat    struct {
			RepairState string `json:"repair_state"`
		} `json:"mat"`
	}
	if err := call(s.handleStats, http.MethodGet, "/stats", "", &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Points != basePoints || stats.Mat.RepairState != "clean" {
		t.Fatalf("after the run: %d points (want %d), repair_state %q", stats.Points, basePoints, stats.Mat.RepairState)
	}
	answers := map[string]string{}
	for _, algo := range []string{"hub-label", "brute"} {
		var res struct {
			Points []int `json:"points"`
		}
		body := fmt.Sprintf(`{"kind":"rnn","node":1500,"k":2,"algo":%q}`, algo)
		if err := call(s.handleQuery, http.MethodPost, "/query", body, &res); err != nil {
			t.Fatal(err)
		}
		answers[algo] = fmt.Sprint(res.Points)
	}
	if answers["hub-label"] != answers["brute"] || answers["brute"] == "[]" {
		t.Fatalf("probe query: hub-label %s, brute %s", answers["hub-label"], answers["brute"])
	}
}

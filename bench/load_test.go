package main

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a clock the open-loop test advances by hand.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	const interval = 50 * time.Millisecond
	// Operation 1 stalls for 120 ms; every other takes 10 ms.
	cost := func(i int) time.Duration {
		if i == 1 {
			return 120 * time.Millisecond
		}
		return 10 * time.Millisecond
	}
	out := openLoop(5, interval, clock.Now, clock.Sleep, func(i int) (bool, string) {
		clock.Sleep(cost(i))
		return i != 3, "boom"
	})
	// Due at 0, 50, 100, 150, 200 ms. Op 1 runs 50..170; op 2 (due 100) is
	// sent at 170, 70 ms late, done 180: 80 ms from its due time. Op 3 (due
	// 150) is sent at 180, 30 ms late, done 190. Op 4 is on time again.
	wantLat := []time.Duration{10, 120, 80, 40, 10}
	wantLate := []time.Duration{0, 0, 70, 30, 0}
	for i, s := range out {
		if s.lat != wantLat[i]*time.Millisecond || s.late != wantLate[i]*time.Millisecond {
			t.Errorf("op %d: lat %v late %v, want %v %v", i, s.lat, s.late, wantLat[i]*time.Millisecond, wantLate[i]*time.Millisecond)
		}
		if s.ok != (i != 3) {
			t.Errorf("op %d: ok = %v", i, s.ok)
		}
	}
	if out[3].fail != "boom" {
		t.Errorf("failure reason lost: %q", out[3].fail)
	}
	// The schedule is never run ahead of: op 4 was due at 200 ms and the
	// writer idled from 190 until then.
	if got := clock.now.Sub(time.Unix(1000, 0)); got != 210*time.Millisecond {
		t.Errorf("schedule ended at %v, want 210ms", got)
	}
}

// The hand-rolled client connection must cope with what net/http's server
// sends: short bodies with a Content-Length, long ones chunked, errors, and
// a connection the server closes.
func TestConnPost(t *testing.T) {
	long := strings.Repeat("x", 100<<10) // past the server's buffer: chunked
	var accepted atomic.Int32
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" {
			http.Error(w, "bad request line or headers", http.StatusTeapot)
			return
		}
		switch r.URL.Path {
		case "/echo":
			w.Write(body)
		case "/long":
			io.WriteString(w, long)
		case "/bye":
			w.Header().Set("Connection", "close")
			w.Write(body)
		default:
			http.Error(w, "no such path", http.StatusNotFound)
		}
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			accepted.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	c := newConn(srv.URL)
	defer c.close()
	for i, tc := range []struct {
		path, body, want, fail string
	}{
		{"/echo?parallelism=2", `{"k":1}`, `{"k":1}`, ""},
		{"/long", "", long, ""},
		{"/missing", "", "", "status 404: no such path"},
		{"/echo", "after an error", "after an error", ""},
		{"/bye", "last on this connection", "last on this connection", ""},
		{"/echo", "redialled", "redialled", ""},
	} {
		s := c.post(tc.path, []byte(tc.body))
		if s.ok != (tc.fail == "") || s.fail != tc.fail || !bytes.Equal(s.body, []byte(tc.want)) {
			t.Fatalf("request %d %s: ok=%v fail=%q body=%d bytes; want fail=%q body=%d bytes", i, tc.path, s.ok, s.fail, len(s.body), tc.fail, len(tc.want))
		}
		if s.ok && s.lat <= 0 {
			t.Fatalf("request %d: no latency", i)
		}
	}
	if accepted.Load() != 2 {
		t.Fatalf("%d connections accepted, want 2: keep-alive until the server closed, then one redial", accepted.Load())
	}
	srv.Close()
	if s := c.post("/echo", nil); s.ok || s.fail == "" {
		t.Fatalf("a refused request must be a failed sample, got %+v", s)
	}
}

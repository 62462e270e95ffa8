package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The reference server is the benchmark's yardstick for the speed of the
// machine. The reference box is a virtual machine on a shared host, and how
// fast one of its CPUs runs this kind of work — a Go HTTP server answering
// small JSON requests over loopback, with or without a graph expansion
// behind them — moves by 15-30 % for minutes at a time with what the host's
// other tenants do. Nothing inside the virtual machine shows it coming, and
// no estimate taken from the rounds of one run removes it: with identical
// inputs, sets of ten runs of hub_point spread by up to 31 % on p95_ms.
//
// So every run also times a second server that does not depend on this
// repository: this file, served by the benchmark's own binary as a child
// process (-refserver), pinned to the same CPU, driven over the same kind of
// connection by the same load generator, in a slice of a few hundred
// milliseconds before every round and after the last. A round's timing
// value is then scaled by nominal / measured, the reference's same metric
// (p50 for p50 ...) as the mean of the two slices around the round against
// a constant: the metric reads in the units of the reference box in its
// usual state. Slice by slice the reference tracks the workload with a
// correlation of 0.86-0.89, and scaling cut the spread of ten-run sets from
// 16-31 % to 2-13 % (README.md has the measurements).
//
// The reference work is fixed here and must not change: a change to it
// rescales every metric of the benchmark.

// refClass is one kind of reference request.
type refClass struct {
	name string
	// work is how many nodes the handler's graph expansion settles; 0 is
	// the bare request: decode, hash 4-8 KiB, encode.
	work int
	// requests in one slice: about 0.3 s (light) or 0.5 s (heavy).
	requests int
	// nominal is what a slice reads on the reference box in its usual
	// state; the scale factors are nominal / measured.
	nominal refSample
}

// refSample is what one reference slice measured.
type refSample struct {
	p50, p95 float64 // ms
	qps      float64
	cpu      float64 // server CPU ms per request
}

var (
	// refLight stands in for a request that is mostly HTTP, JSON and
	// scheduling: the hub-label workloads.
	refLight = refClass{name: "light", work: 0, requests: 8000,
		nominal: refSample{p50: 0.0365, p95: 0.0640, qps: 24400, cpu: 0.0290}}
	// refHeavy stands in for a request that is mostly graph expansion:
	// binary-heap Dijkstra over adjacency arrays.
	refHeavy = refClass{name: "heavy", work: 12000, requests: 250,
		nominal: refSample{p50: 2.04, p95: 2.30, qps: 480, cpu: 2.02}}
)

// refQuery is the reference request; refAnswer the response, about the size
// of a hub-label /query answer.
type refQuery struct {
	Node int `json:"node"`
	K    int `json:"k"`
	Work int `json:"work"`
}

type refAnswer struct {
	Points []int            `json:"points"`
	Stats  map[string]int64 `json:"stats"`
	Sum    string           `json:"sum"`
}

// refGraph is a fixed synthetic network of the tracked one's size and
// degree: a ring with random chords, about 2.6 out-edges per node, in
// compressed sparse rows.
type refGraph struct {
	mu    sync.Mutex // one expansion at a time: the scratch below is shared
	off   []int32
	to    []int32
	w     []float64
	stamp []uint32
	epoch uint32
	heap  []refItem
}

type refItem struct {
	d float64
	n int32
}

const refNodes = 20000

func newRefGraph() *refGraph {
	x := uint64(2006)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	adj := make([][]refItem, refNodes)
	add := func(a, b int32, w float64) {
		adj[a] = append(adj[a], refItem{w, b})
		adj[b] = append(adj[b], refItem{w, a})
	}
	for i := range int32(refNodes) {
		add(i, (i+1)%refNodes, 1+float64(next()%1000)/1000)
		if next()%10 < 3 {
			add(i, int32(next()%refNodes), 5+float64(next()%1000)/100)
		}
	}
	g := &refGraph{off: make([]int32, refNodes+1), stamp: make([]uint32, refNodes)}
	for i, row := range adj {
		g.off[i+1] = g.off[i] + int32(len(row))
		for _, e := range row {
			g.to = append(g.to, e.n)
			g.w = append(g.w, e.d)
		}
	}
	return g
}

// expand settles up to settle nodes from src in distance order and returns
// the last distance settled.
func (g *refGraph) expand(src, settle int) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.epoch++
	h := append(g.heap[:0], refItem{0, int32(src % refNodes)})
	var far float64
	for done := 0; len(h) > 0 && done < settle; {
		// Pop the nearest.
		it := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < len(h) && h[l].d < h[m].d {
				m = l
			}
			if r < len(h) && h[r].d < h[m].d {
				m = r
			}
			if m == i {
				break
			}
			h[m], h[i] = h[i], h[m]
			i = m
		}
		if g.stamp[it.n] == g.epoch {
			continue
		}
		g.stamp[it.n] = g.epoch
		far = it.d
		done++
		for e := g.off[it.n]; e < g.off[it.n+1]; e++ {
			t := g.to[e]
			if g.stamp[t] == g.epoch {
				continue
			}
			h = append(h, refItem{it.d + g.w[e], t})
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		}
	}
	g.heap = h
	return far
}

// refServe runs the reference server on addr until the process is ended.
func refServe(addr string) error { return http.ListenAndServe(addr, refHandler()) }

func refHandler() http.Handler {
	g := newRefGraph()
	blob := make([]byte, 8<<10)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	// /cpu is the process's CPU time so far, in microseconds: finer than
	// the 10 ms ticks of /proc/<pid>/stat, which a 0.3 s slice needs.
	mux.HandleFunc("/cpu", func(w http.ResponseWriter, r *http.Request) {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		us := (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec)
		io.WriteString(w, strconv.FormatInt(us, 10))
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var q refQuery
		if err := json.Unmarshal(body, &q); err != nil || q.Node < 0 || q.Work < 0 {
			http.Error(w, "bad reference query", http.StatusBadRequest)
			return
		}
		sum := sha256.Sum256(blob[:4096+q.Node%4096])
		far := g.expand(q.Node, q.Work)
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(refAnswer{ // a client that went away is not the server's failure
			Points: []int{q.Node, q.K, int(far)},
			Stats:  map[string]int64{"nodes_expanded": int64(q.Work), "label_reads": 3, "label_entries": 8000, "heap_pushes": 2},
			Sum:    hex.EncodeToString(sum[:]),
		})
	})
	return mux
}

// reference is a running reference server and the connection to it.
type reference struct {
	srv     *server
	conn    *conn
	control *http.Client
	class   *refClass
	bodies  [][]byte
	next    int
}

// refBodies is the fixed request sequence of a class: the same for every
// seed, so that every slice of every run times the same work.
func refBodies(c *refClass) [][]byte {
	x := uint64(88172645463325252)
	out := make([][]byte, 1024)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = fmt.Appendf(nil, `{"node":%d,"k":%d,"work":%d}`, x%refNodes, []int{1, 2, 4}[i%3], c.work)
	}
	return out
}

func (r *reference) cpuMicros() (float64, error) {
	body, err := getJSON(r.control, r.srv.base+"/cpu")
	if err != nil {
		return 0, err
	}
	return strconv.ParseFloat(string(body), 64)
}

// slice times one reference slice: the class's request count over the one
// connection, closed loop.
func (r *reference) slice() (refSample, error) {
	lats := make([]float64, 0, r.class.requests)
	cpu0, err := r.cpuMicros()
	if err != nil {
		return refSample{}, err
	}
	start := time.Now()
	for range r.class.requests {
		s := r.conn.post("/query", r.bodies[r.next%len(r.bodies)])
		r.next++
		if !s.ok {
			return refSample{}, fmt.Errorf("reference request: %s", s.fail)
		}
		lats = append(lats, ms(s.lat))
	}
	wall := time.Since(start)
	cpu1, err := r.cpuMicros()
	if err != nil {
		return refSample{}, err
	}
	sort.Float64s(lats)
	p50, _ := percentile(lats, 50)
	p95, _ := percentile(lats, 95)
	n := float64(len(lats))
	return refSample{p50: p50, p95: p95, qps: n / wall.Seconds(), cpu: (cpu1 - cpu0) / 1000 / n}, nil
}

// scale returns, for the round between two slices, the factor each timing
// metric is multiplied by: nominal over the mean of the two measurements.
// qps scales the same way, because the reference's qps falls as the
// workload's does: a slow machine reads low on both, and nominal/measured
// is then above 1.
func (c *refClass) scale(before, after refSample) map[string]float64 {
	mean := func(a, b float64) float64 { return (a + b) / 2 }
	return map[string]float64{
		"p50_ms":        c.nominal.p50 / mean(before.p50, after.p50),
		"p95_ms":        c.nominal.p95 / mean(before.p95, after.p95),
		"qps":           c.nominal.qps / mean(before.qps, after.qps),
		"cpu_ms_per_op": c.nominal.cpu / mean(before.cpu, after.cpu),
	}
}

// startReference starts the reference server of w's class, pinned like
// everything else, and warms it with one discarded slice.
func startReference(ctx context.Context, cfg runConfig, w *workload, live *liveServer) (*reference, error) {
	srv, _, err := startServer(ctx, cfg.selfBin, []string{"-refserver"})
	if err != nil {
		return nil, fmt.Errorf("reference server: %w", err)
	}
	live.setRef(srv)
	class := *w.ref
	if cfg.smoke {
		class.requests = max(class.requests/20, 20)
	}
	r := &reference{srv: srv, conn: newConn(srv.base), control: &http.Client{Timeout: requestTimeout}, class: &class, bodies: refBodies(&class)}
	if _, err := r.slice(); err != nil {
		r.close(live)
		return nil, err
	}
	return r, nil
}

// close ends the reference server. It holds no state worth a clean exit.
func (r *reference) close(live *liveServer) {
	r.conn.close()
	r.control.CloseIdleConnections()
	r.srv.kill()
	live.setRef(nil)
}

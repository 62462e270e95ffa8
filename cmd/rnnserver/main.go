// Command rnnserver serves RkNN queries over HTTP — the first serving
// surface of the system. It generates one of the paper's network families,
// places a random data set (and a smaller site set for bichromatic
// queries) on it, and answers JSON queries concurrently on top of the
// thread-safe DB. The hub-label substrate can be built at startup
// (-hublabel) or on demand (POST /index/hublabel); POST /query accepts one
// declarative request schema for every query shape, lets the planner pick
// the substrate (algo "auto"), and echoes the decision in the response.
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
//
// Every query runs under the request's context plus the -query-timeout
// deadline (tightenable per request with ?timeout=50ms): a disconnecting
// client cancels its query mid-expansion, and a query that outlives its
// deadline answers 504 instead of occupying a worker to completion.
//
// Usage:
//
//	rnnserver [-addr :8080] [-family road|brite|grid] [-nodes N]
//	          [-density D] [-sites N] [-seed N] [-disk] [-buffer PAGES]
//	          [-maxk K] [-hublabel K] [-build-workers N]
//	          [-query-timeout D] [-pprof ADDR] [-shards N]
//
// -pprof ADDR serves net/http/pprof (/debug/pprof/profile, heap, ...) on a
// listener of its own, so profiles of the running server never share a
// port with queries; it is off by default.
//
// Hub-label builds run the pruned-landmark sweeps across -build-workers
// goroutines (default all cores — sequential on fewer than three, where
// batching loses; the labels are bit-identical at any worker count). That
// applies to the startup build, POST /index/hublabel, repair-failure
// rebuilds and the coordinator's build of sharded mode. The labels are
// served from memory.
//
// Sharded serving (-shards N) answers /query by scatter-gather inside this
// process: the node set is cut into N balanced regions, one engine and one
// buffer-pool tenant serve each region's points (plus a replicated halo
// ring of competitors), and the coordinator merges the per-shard
// candidates and re-verifies them by expansion — answers stay
// bit-identical to unsharded serving on the same substrate, and the
// response's plan says what ran. -maxk configures per-shard
// materializations in sharded mode, and the maintenance endpoints are
// disabled: the shards' point sets are fixed when they are cut.
//
// -hublabel K in sharded mode builds one hub-label index, over the full
// point set, on the coordinator: rnn and continuous queries with "algo"
// omitted or "auto" and k <= K are answered there outright — regions bound
// expansions, and label intersection has none — so they fan out to no
// shard. An explicit expansion "algo", k > K and bichromatic queries still
// scatter. The substrate hints "eager-m" and "hub-label" are a 400 in
// sharded mode: each shard's planner picks eager-M from its own lists, and
// the coordinator's index answers auto queries.
//
// Endpoints:
//
//	POST /query       one declarative query:
//	                    {"kind":"rnn|bichromatic|continuous|knn",
//	                     "node":N | "route":[...],
//	                     "k":K, "algo":"auto|eager|lazy|lazy-ep|eager-m|hub-label|brute",
//	                     "timeout":"50ms"}
//	                  or a JSON array of them as a batch
//	                  [?timeout=50ms] [?parallelism=N] [?fail_fast=true]
//	                  (the schema also accepts "edge":{"u","v","pos"} targets,
//	                  but this server hosts node-resident point sets, so edge
//	                  targets answer a typed 400)
//	POST /mat/insert  {"node":N}    place a point and repair the K-NN lists
//	POST /mat/delete  {"point":P}   remove a point and repair the lists
//	                  [?timeout=50ms] — maintenance is atomic:
//	                  an operation abandoned by the deadline (504) or a
//	                  disconnecting client is rolled back, never left
//	                  partially applied, so the endpoints are safe under
//	                  per-request deadlines. Maintenance takes the write
//	                  half of a server RW-lock; queries take the read half.
//	                  Both endpoints are the point set's one maintenance
//	                  path (Insert / Remove): it repairs the K-NN lists and
//	                  then the hub-label index in place
//	                  (point-level insert/delete on its reverse lists);
//	                  only if that repair fails does the library detach the
//	                  index, and then it is rebuilt outside the write lock
//	                  and republished under the read half, so queries are
//	                  never blocked behind a rebuild.
//	POST /index/hublabel   {"maxk":K}   build/replace the hub-label index
//	GET  /healthz
//	GET  /stats            shared buffer pool (per-tenant) + planner decisions
//	                       + maintenance counters and repair state
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers on http.DefaultServeMux, which only the -pprof listener serves
	"os"
	"os/signal"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"graphrnn"
)

// server is the serving state behind every route.
//
// Lock order, outermost first: hubBuild, then mu, then the leaf locks —
// the buffer pool's BufferPool.mu and the planner tallies'
// plannerCounters.mu. buildHub takes hubBuild and, under it, mu (read for
// the build, write to retire the replaced index); a query, a maintenance
// request and /stats take mu and reach the leaves through the engine.
// Nothing is acquired while a leaf is held: no path back from the pool or
// the counters takes mu or hubBuild, and Tenant.ReadPage's read
// callback runs under BufferPool.mu, so it must not call back into the
// pool. hubBuild is never taken under mu — maintenance releases mu before
// its rebuild-after-failed-repair calls buildHub.
// TestConcurrentServerNoDeadlock drives every route at once under -race
// and a watchdog.
type server struct {
	db *graphrnn.DB
	ps *graphrnn.NodePoints
	// sites is the competitor set bichromatic /query requests run against
	// (nil when the server starts with -sites 0).
	sites   *graphrnn.NodePoints
	mat     *graphrnn.Materialization
	family  string
	started time.Time
	served  atomic.Int64
	errors  atomic.Int64
	// mu serializes maintenance (write lock) against queries (read lock):
	// the DB contract requires that no query runs while the point set and
	// lists mutate. Maintenance ops are short — deadline-bounded and rolled
	// back on abandonment — so writers never hold queries long.
	mu sync.RWMutex
	// maintenance counters for /stats.
	matInserts atomic.Int64
	matDeletes atomic.Int64
	// planner tallies the substrate decisions of /query for /stats.
	planner plannerCounters
	// queryTimeout is the default per-query deadline (-query-timeout);
	// zero means none. A request may tighten (never widen) it with a
	// ?timeout= parameter. Expired queries answer 504.
	queryTimeout time.Duration
	timeouts     atomic.Int64

	hub      atomic.Pointer[graphrnn.HubLabelIndex]
	hubBuild sync.Mutex // one build at a time
	// hubOpts configure every hub-label construction (startup,
	// POST /index/hublabel, repair-failure rebuilds, the sharded build).
	hubOpts graphrnn.HubLabelOptions
	// hub-label maintenance counters for /stats.
	hubRepairs     atomic.Int64
	hubRepairFails atomic.Int64
	hubRebuilds    atomic.Int64

	// sharded, when non-nil, routes /query through in-process
	// scatter-gather (see sharded.go in the library).
	sharded *graphrnn.Sharded
}

// close releases the server's substrates in dependency order — sharded
// engines, the hub-label index, the materialization, then the DB itself —
// detaching their buffer-pool tenants; DB.Close fails on a tenant that
// outlives them, a substrate somebody attached and nobody closed. Requests
// must have drained. It returns the first error and keeps going.
func (s *server) close() error {
	var first error
	if s.sharded != nil {
		if err := s.sharded.Close(); first == nil {
			first = err
		}
		s.sharded = nil
	}
	if idx := s.hub.Swap(nil); idx != nil {
		if err := idx.Close(); first == nil {
			first = err
		}
	}
	if s.mat != nil {
		if err := s.mat.Close(); first == nil {
			first = err
		}
		s.mat = nil
	}
	if s.db != nil {
		if err := s.db.Close(); first == nil {
			first = err
		}
		s.db = nil
	}
	return first
}

// queryOptions resolves the per-query deadline of one request: the server
// default, optionally tightened by a ?timeout= duration parameter.
func (s *server) queryOptions(r *http.Request) (*graphrnn.QueryOptions, error) {
	timeout := s.queryTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad timeout parameter %q (want a positive Go duration, e.g. 50ms)", v)
		}
		if timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout == 0 {
		return nil, nil
	}
	return &graphrnn.QueryOptions{Timeout: timeout}, nil
}

// failQuery maps a query error onto an HTTP status: 504 for a deadline
// that expired server-side, 400 for everything else (bad parameters,
// client-canceled requests included — the client is gone anyway).
func (s *server) failQuery(w http.ResponseWriter, err error) {
	if errors.Is(err, graphrnn.ErrDeadlineExceeded) {
		s.timeouts.Add(1)
		s.fail(w, http.StatusGatewayTimeout, err)
		return
	}
	s.fail(w, http.StatusBadRequest, err)
}

type errResponse struct {
	Error string `json:"error"`
}

func (s *server) algorithm(name string) (graphrnn.Algorithm, error) {
	switch name {
	case "eager":
		return graphrnn.Eager(), nil
	case "lazy":
		return graphrnn.Lazy(), nil
	case "lazy-ep", "lazyep":
		return graphrnn.LazyEP(), nil
	case "eager-m", "eagerm":
		if s.sharded != nil {
			return graphrnn.Algorithm{}, fmt.Errorf("eager-m is not a hint in sharded mode: each shard's planner picks eager-M from its own lists; omit algo")
		}
		if s.mat == nil {
			return graphrnn.Algorithm{}, fmt.Errorf("eager-m unavailable: server started with -maxk 0")
		}
		return graphrnn.EagerM(s.mat), nil
	case "hub-label", "hublabel", "hub":
		if s.sharded != nil {
			return graphrnn.Algorithm{}, fmt.Errorf("hub-label is not a hint in sharded mode: the coordinator's index (-hublabel K) answers auto queries with k <= K; omit algo")
		}
		idx := s.hub.Load()
		if idx == nil {
			return graphrnn.Algorithm{}, fmt.Errorf("hub-label unavailable: build it with POST /index/hublabel or start with -hublabel K")
		}
		return graphrnn.HubLabel(idx), nil
	case "brute", "brute-force":
		return graphrnn.BruteForce(), nil
	default:
		return graphrnn.Algorithm{}, fmt.Errorf("unknown algorithm %q", name)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *server) fail(w http.ResponseWriter, code int, err error) {
	s.errors.Add(1)
	writeJSON(w, code, errResponse{Error: err.Error()})
}

type hubBuildRequest struct {
	MaxK int `json:"maxk"`
}

// handleHubBuild builds (or replaces) the hub-label index. The build runs
// on the request goroutine — label construction is CPU-bound and can take
// seconds on large graphs — and queries keep using the previous index (or
// the expansion algorithms) until the swap. Builds are not cancelable: a
// shutdown arriving mid-build drains until the grace period expires, then
// the listener is force-closed (see main).
func (s *server) handleHubBuild(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.sharded != nil {
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("global hub-label builds unavailable in sharded mode: start with -hublabel K to build the coordinator's index"))
		return
	}
	req := hubBuildRequest{MaxK: 4}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if len(body) != 0 { // no body at all builds the default
		if err := strictUnmarshal(body, &req); err != nil {
			s.fail(w, http.StatusBadRequest, err)
			return
		}
	}
	if req.MaxK < 1 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("maxk must be >= 1, got %d", req.MaxK))
		return
	}
	idx, err := s.buildHub(req.MaxK)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, hubStats(idx))
}

// hubStats describes a built index: what POST /index/hublabel answers and
// the base of /stats' hublabel section.
func hubStats(idx *graphrnn.HubLabelIndex) map[string]any {
	bst := idx.BuildStats()
	return map[string]any{
		"maxk":           idx.MaxK(),
		"label_entries":  idx.LabelEntries(),
		"avg_label_size": idx.AverageLabelSize(),
		"label_bytes":    bst.LabelBytes,
		"build_seconds":  bst.WallSeconds,
		"build_workers":  bst.Workers,
		"build_batches":  bst.Batches,
		"pruned_visits":  bst.Pruned,
		"resweeps":       bst.Resweeps,
	}
}

// buildHub builds a hub-label index over the data set and publishes it,
// one build at a time. The build reads the point set, so it holds the query
// (read) lock — maintenance cannot mutate the set mid-build and queries
// keep flowing on the remaining substrates — and the new index is published
// under the same hold. The index it replaces is then retired under the
// write lock, when no query can still be reading its label pages: Close
// hands its pool tenant (and the capacity it contributed) back.
func (s *server) buildHub(maxK int) (*graphrnn.HubLabelIndex, error) {
	s.hubBuild.Lock()
	defer s.hubBuild.Unlock()
	var idx, old *graphrnn.HubLabelIndex
	var err error
	s.reading(func() {
		if idx, err = s.db.BuildHubLabelIndex(s.ps, maxK, &s.hubOpts); err == nil {
			old = s.hub.Swap(idx)
		}
	})
	if old != nil {
		var cerr error
		s.writing(func() { cerr = old.Close() })
		if cerr != nil {
			log.Printf("rnnserver: retiring the replaced hub-label index: %v", cerr)
		}
	}
	return idx, err
}

// reading runs fn under the query (read) half of mu, writing under the
// maintenance (write) half. Both release it by defer, so a panic in fn
// fails its one request — net/http recovers the handler — instead of
// leaving mu held and every later request waiting on it.
func (s *server) reading(fn func()) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn()
}

func (s *server) writing(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// The maintenance ids decode into the library's 32-bit types, like the
// query ids: out of range is a decode error, not a wrapped id.
type matInsertRequest struct {
	Node graphrnn.NodeID `json:"node"`
}

type matDeleteRequest struct {
	Point graphrnn.PointID `json:"point"`
}

// matResponse is one answered maintenance operation.
type matResponse struct {
	Point       graphrnn.PointID `json:"point"`
	Points      int              `json:"points"`
	RepairState string           `json:"repair_state"`
	Stats       graphrnn.Stats   `json:"stats"`
	// HubLabelRepaired reports that the attached hub-label index was
	// repaired in place (point-level insert/delete on its reverse lists)
	// — the common path; the index keeps serving without a rebuild.
	HubLabelRepaired bool `json:"hub_label_repaired,omitempty"`
	// HubLabelRebuilt reports that an in-place repair failed and the
	// index was rebuilt from scratch (outside the write lock).
	HubLabelRebuilt bool `json:"hub_label_rebuilt,omitempty"`
	// HubLabelDropped reports that the index was invalidated and could
	// not be rebuilt; rebuild it with POST /index/hublabel when needed.
	HubLabelDropped bool `json:"hub_label_dropped,omitempty"`
}

// maintenance frames one maintenance request: it decodes the body into
// req (a *matInsertRequest or a *matDeleteRequest), takes the write lock
// (maintenance is exclusive against queries), and runs the point set's one
// maintenance path under the request's deadline — Insert or Remove, by the
// request's type — answering with the repair state. An operation
// abandoned by cancellation or deadline is rolled back from the lists'
// before-images before the error surfaces, so a 504 here means "not applied", never
// "partially applied" — which is what makes this endpoint safe to expose at
// all.
//
// The set repairs the hub-label index in place behind the lists. If that
// repair fails the library has already detached the index — queries fall
// back to eager-M / expansion, never serve stale answers — and a full
// rebuild runs *outside* the write lock, published under the read lock once
// ready (the PR 5 pattern for /index/hublabel).
func (s *server) maintenance(w http.ResponseWriter, r *http.Request, req any) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	if s.sharded != nil {
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("maintenance unavailable in sharded mode: the shards' point sets are fixed when they are cut at startup"))
		return
	}
	if s.mat == nil {
		s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("maintenance unavailable: server started with -maxk 0"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	if err := strictUnmarshal(body, req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	opt, err := s.queryOptions(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var resp matResponse
	var opErr error
	var idx *graphrnn.HubLabelIndex
	rebuildK := 0
	counter := &s.matInserts
	s.writing(func() {
		switch req := req.(type) {
		case *matInsertRequest:
			resp.Point, resp.Stats, opErr = s.ps.Insert(r.Context(), graphrnn.NodeLocation(req.Node), opt)
		case *matDeleteRequest:
			counter = &s.matDeletes
			resp.Point = req.Point
			resp.Stats, opErr = s.ps.Remove(r.Context(), resp.Point, opt)
		}
		idx = s.hub.Load()
		if errors.Is(opErr, graphrnn.ErrSubstrateDetached) {
			// The point is committed; the index that could not follow is
			// detached. Retire it now (under the lock, so no query names it
			// again) and rebuild after the write lock is released.
			log.Printf("rnnserver: hub-label repair failed, rebuilding: %v", opErr)
			rebuildK = idx.MaxK()
			s.hub.CompareAndSwap(idx, nil)
			if cerr := idx.Close(); cerr != nil {
				log.Printf("rnnserver: retiring the detached hub-label index: %v", cerr)
			}
			s.hubRepairFails.Add(1)
			opErr = nil
		}
		// Snapshot the response fields before releasing the write lock: a
		// concurrent maintenance request must not race the reads.
		resp.Points = s.ps.Len()
		resp.RepairState = s.mat.RepairState().String()
	})
	if opErr != nil {
		s.failQuery(w, opErr)
		return
	}
	counter.Add(1)
	switch {
	case rebuildK > 0:
		if _, err := s.buildHub(rebuildK); err != nil {
			log.Printf("rnnserver: hub-label rebuild after failed repair: %v", err)
			resp.HubLabelDropped = true
		} else {
			s.hubRebuilds.Add(1)
			resp.HubLabelRebuilt = true
		}
	case idx != nil:
		s.hubRepairs.Add(1)
		resp.HubLabelRepaired = true
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMatInsert serves POST /mat/insert {"node":N}: place a new point on
// node N and repair the materialized K-NN lists (Section 4.1 insertion).
func (s *server) handleMatInsert(w http.ResponseWriter, r *http.Request) {
	s.maintenance(w, r, &matInsertRequest{})
}

// handleMatDelete serves POST /mat/delete {"point":P}: remove point P and
// repair the lists with the border-node algorithm (Fig 10).
func (s *server) handleMatDelete(w http.ResponseWriter, r *http.Request) {
	s.maintenance(w, r, &matDeleteRequest{})
}

// handleHealthz is the liveness/readiness probe: by the time the listener
// is up the graph and point set are built, so a 200 means queryable.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.started).Seconds(),
	})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	// Point counts and the repair state mutate under the maintenance
	// write lock; snapshot them under the read half.
	s.mu.RLock()
	defer s.mu.RUnlock()
	g := s.db.Graph()
	pool := s.db.PoolStats()
	tenants := make([]map[string]any, 0, len(pool.Tenants))
	for _, t := range pool.Tenants {
		tenants = append(tenants, map[string]any{
			"name": t.Name, "reads": t.Reads, "hits": t.Hits,
			"writes": t.Writes, "evictions": t.Evictions,
			"frames": t.Frames, "quota": t.Quota,
		})
	}
	stats := map[string]any{
		"family":         s.family,
		"nodes":          g.NumNodes(),
		"edges":          g.NumEdges(),
		"points":         s.ps.Len(),
		"queries_served": s.served.Load(),
		"query_errors":   s.errors.Load(),
		"query_timeouts": s.timeouts.Load(),
		"uptime_seconds": time.Since(s.started).Seconds(),
		"pool": map[string]any{
			"capacity":  pool.Capacity,
			"reads":     pool.Reads,
			"hits":      pool.Hits,
			"writes":    pool.Writes,
			"evictions": pool.Evictions,
			"hit_rate":  pool.HitRate(),
			"tenants":   tenants,
		},
		"planner": s.planner.snapshot(),
	}
	if s.sites != nil {
		stats["sites"] = s.sites.Len()
	}
	if s.sharded != nil {
		stats["shards"] = shardStatsSection(s.sharded.Stats())
	}
	if s.mat != nil {
		stats["mat"] = map[string]any{
			"maxk":         s.mat.MaxK(),
			"inserts":      s.matInserts.Load(),
			"deletes":      s.matDeletes.Load(),
			"repair_state": s.mat.RepairState().String(),
		}
	}
	if idx := s.hub.Load(); idx != nil {
		hub := hubStats(idx)
		hub["repairs"] = s.hubRepairs.Load()
		hub["repair_failures"] = s.hubRepairFails.Load()
		hub["rebuilds"] = s.hubRebuilds.Load()
		stats["hublabel"] = hub
	}
	writeJSON(w, http.StatusOK, stats)
}

// shardStatsSection renders the coordinator's scatter-gather counters for
// /stats: partition shape, fan-out and verification totals, and one entry
// per shard (sub-query counts, failures, candidates proposed, cumulative
// latency).
func shardStatsSection(st graphrnn.ShardedStats) map[string]any {
	perShard := make([]map[string]any, len(st.PerShard))
	for i, sh := range st.PerShard {
		perShard[i] = map[string]any{
			"shard":        sh.Shard,
			"owned_nodes":  sh.OwnedNodes,
			"owned_points": sh.OwnedPoints,
			"halo_points":  sh.HaloPoints,
			"queries":      sh.Queries,
			"errors":       sh.Errors,
			"candidates":   sh.Candidates,
			"latency_ms":   float64(sh.Latency.Microseconds()) / 1000.0,
		}
	}
	return map[string]any{
		"shards":          st.Shards,
		"halo_depth":      st.HaloDepth,
		"cut_edges":       st.CutEdges,
		"queries":         st.Queries,
		"global_runs":     st.GlobalRuns,
		"fan_outs":        st.FanOuts,
		"candidates":      st.Candidates,
		"verify_runs":     st.VerifyRuns,
		"verify_rejected": st.VerifyRejected,
		"members":         st.Members,
		"shard_errors":    st.ShardErrors,
		"per_shard":       perShard,
	}
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		family   = flag.String("family", "road", "network family: road, brite, grid")
		nodes    = flag.Int("nodes", 10000, "approximate node count")
		density  = flag.Float64("density", 0.01, "data density |P|/|V|")
		seed     = flag.Int64("seed", 1, "seed")
		disk     = flag.Bool("disk", false, "serve the graph disk-backed through the LRU buffer")
		buffer   = flag.Int("buffer", 256, "LRU buffer capacity in pages (disk-backed only)")
		sites    = flag.Int("sites", -1, "site set size for bichromatic /query requests (-1 = points/10, 0 disables)")
		maxK     = flag.Int("maxk", 4, "materialize K-NN lists up to this k for eager-m (0 disables; sharded: each shard's lists, which its planner picks itself)")
		hubLabel = flag.Int("hublabel", 0, "build the hub-label index up to this k at startup (0 defers to POST /index/hublabel; sharded: the coordinator's index, which answers auto rnn/continuous queries up to this k without fan-out)")
		queryTO  = flag.Duration("query-timeout", 0, "per-query deadline; expired queries answer 504 (0 disables)")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this separate listen address (empty disables)")

		buildWorkers = flag.Int("build-workers", 0, "worker goroutines for hub-label construction (0 = all cores, sequential below three; 1 = sequential)")

		shards = flag.Int("shards", 0, "serve /query by in-process scatter-gather over N shards (0 = unsharded)")
	)
	flag.Parse()

	began := time.Now()
	var (
		g   *graphrnn.Graph
		err error
	)
	switch *family {
	case "road":
		g, err = graphrnn.GenerateRoadNetwork(*seed, *nodes)
	case "brite":
		g, err = graphrnn.GenerateBrite(*seed, *nodes, 4)
	case "grid":
		g, err = graphrnn.GenerateGrid(*seed, *nodes, 4)
	default:
		fmt.Fprintf(os.Stderr, "unknown family %q\n", *family)
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	var opt *graphrnn.Options
	if *disk {
		opt = &graphrnn.Options{DiskBacked: true, BufferPages: *buffer}
	}
	db, err := graphrnn.OpenWithLayout(g, opt, graphrnn.ClusteredLayout())
	if err != nil {
		log.Fatal(err)
	}
	graphSecs := time.Since(began).Seconds()
	placing := time.Now()
	count := int(*density * float64(g.NumNodes()))
	if count < 2 {
		count = 2
	}
	ps, err := db.PlaceRandomNodePoints(*seed+1, count)
	if err != nil {
		log.Fatal(err)
	}
	srv := &server{db: db, ps: ps, family: *family, started: time.Now(), queryTimeout: *queryTO}
	// Flag value 0 means "use every core"; the library spells that -1
	// (0 there falls back to sequential).
	srv.hubOpts.Build.Workers = *buildWorkers
	if *buildWorkers == 0 {
		srv.hubOpts.Build.Workers = -1
	}
	nsites := *sites
	if nsites < 0 {
		nsites = ps.Len() / 10
		if nsites < 2 {
			nsites = 2
		}
	}
	if nsites > 0 {
		srv.sites, err = db.PlaceRandomNodePoints(*seed+2, nsites)
		if err != nil {
			log.Fatal(err)
		}
	}
	pointsSecs := time.Since(placing).Seconds()

	// What the unsharded set-up spends, for the start-up line below.
	var knnSecs, labelSecs, reverseSecs float64
	var workers, entries int
	var labelBytes int64
	if *shards > 0 {
		// Sharded mode: -maxk and -hublabel configure the sharded layer's
		// substrates, and the maintenance endpoints are disabled (the
		// shards' point sets are fixed by the cut).
		shOpt := &graphrnn.ShardOptions{
			Shards: *shards, Seed: *seed, Sites: srv.sites,
			HubLabelK: *hubLabel, MatK: *maxK,
			DiskBacked: *disk, BufferPages: *buffer,
			Build: srv.hubOpts.Build,
		}
		start := time.Now()
		srv.sharded, err = db.Shard(ps, shOpt)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("rnnserver: sharded serving over %d shards built in %v",
			*shards, time.Since(start).Round(time.Millisecond))
	} else {
		if *maxK > 0 {
			mark := time.Now()
			srv.mat, err = db.MaterializeNodePoints(ps, *maxK, nil)
			if err != nil {
				log.Fatal(err)
			}
			knnSecs = time.Since(mark).Seconds()
		}
		if *hubLabel > 0 {
			mark := time.Now()
			idx, err := db.BuildHubLabelIndex(ps, *hubLabel, &srv.hubOpts)
			if err != nil {
				log.Fatal(err)
			}
			srv.hub.Store(idx)
			bst := idx.BuildStats()
			labelSecs, workers, entries, labelBytes = bst.WallSeconds, bst.Workers, idx.LabelEntries(), bst.LabelBytes
			reverseSecs = time.Since(mark).Seconds() - labelSecs
		}
	}

	// The builds above leave their garbage behind, and serving allocates
	// too little to make the collector come round for it: release it once.
	debug.FreeOSMemory()
	if srv.sharded == nil {
		log.Printf("rnnserver: set up in %.3fs: graph %.3fs, points %.3fs, K-NN lists %.3fs, labeling %.3fs (%d workers, %d entries, %d bytes), reverse index %.3fs",
			time.Since(began).Seconds(), graphSecs, pointsSecs, knnSecs, labelSecs, workers, entries, labelBytes, reverseSecs)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/query", srv.handleQuery)
	mux.HandleFunc("/mat/insert", srv.handleMatInsert)
	mux.HandleFunc("/mat/delete", srv.handleMatDelete)
	mux.HandleFunc("/index/hublabel", srv.handleHubBuild)
	mux.HandleFunc("/healthz", srv.handleHealthz)
	mux.HandleFunc("/stats", srv.handleStats)

	if *pprofOn != "" {
		go func() { log.Printf("rnnserver: pprof listener: %v", http.ListenAndServe(*pprofOn, nil)) }()
	}
	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("rnnserver: %s network |V|=%d |E|=%d |P|=%d, listening on %s",
			*family, g.NumNodes(), g.NumEdges(), ps.Len(), *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Print("rnnserver: shutting down, draining in-flight requests")
	// 30s covers any query and all but the largest hub-label builds; a
	// request that outlives the grace period (an in-flight build on a
	// paper-scale graph) is cut off with a forced close and an honest
	// non-zero exit.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("rnnserver: drain incomplete after grace period (%v); forcing close", err)
		httpSrv.Close()
		os.Exit(1)
	}
	if err := srv.close(); err != nil {
		log.Printf("rnnserver: substrate release: %v", err)
	}
	log.Print("rnnserver: stopped cleanly")
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphrnn"
)

// This file is the server half of the query API: one POST /query endpoint
// accepting the same declarative request schema for every query shape — a
// JSON object for a single query, a JSON array for a batch — and echoing
// the planner's substrate decision in each response.

// maxQueryBody bounds a request body (a /query batch of a few thousand
// entries fits comfortably; anything larger is abuse, not traffic).
const maxQueryBody = 1 << 20

// queryRequest is the wire form of one declarative query. Exactly one of
// node/edge locates the target for rnn/bichromatic/knn kinds; continuous
// uses route. Edge targets decode (the schema is the full Location model)
// but answer a typed 400 while the server hosts node-resident point sets.
type queryRequest struct {
	// Kind: "rnn" (default), "bichromatic", "continuous", "knn".
	Kind string `json:"kind"`
	// Node ids decode into the library's 32-bit NodeID, so an id beyond it
	// is a decode error (400), never another node's id modulo 2^32.
	Node *graphrnn.NodeID `json:"node,omitempty"`
	Edge *struct {
		U   graphrnn.NodeID `json:"u"`
		V   graphrnn.NodeID `json:"v"`
		Pos float64         `json:"pos"`
	} `json:"edge,omitempty"`
	Route []graphrnn.NodeID `json:"route,omitempty"`
	K     int               `json:"k"`
	// Algo: "" or "auto" lets the planner choose; a named algorithm is a
	// hint the planner may fall back from (the response's plan reports it).
	Algo string `json:"algo"`
	// Timeout is an optional per-entry deadline ("50ms"); it tightens the
	// server default and the request-level ?timeout= parameter.
	Timeout string `json:"timeout,omitempty"`
}

// decodeQueryBody parses a /query body: one request object, or an array of
// them (batch). It never panics on malformed input; every error is a
// client error (400).
func decodeQueryBody(body []byte) (reqs []queryRequest, batch bool, err error) {
	i := 0
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	if i == len(body) {
		return nil, false, fmt.Errorf("empty request body")
	}
	if body[i] == '[' {
		if err := strictUnmarshal(body, &reqs); err != nil {
			return nil, true, err
		}
		return reqs, true, nil
	}
	var one queryRequest
	if err := strictUnmarshal(body, &one); err != nil {
		return nil, false, err
	}
	return []queryRequest{one}, false, nil
}

// readBody reads a request body of at most maxQueryBody bytes — every POST
// endpoint's bound — answering 413 beyond it and 400 on a read error; ok is
// false once it has answered.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) (body []byte, ok bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxQueryBody+1))
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	if len(body) > maxQueryBody {
		s.fail(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxQueryBody))
		return nil, false
	}
	return body, true
}

// strictUnmarshal decodes JSON rejecting unknown fields — a typo'd field
// name answers 400 instead of silently running a different query.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("bad request body: trailing data after the JSON value")
	}
	return nil
}

// toQuery lifts one wire request onto the declarative Go surface. base is
// the request-level QueryOptions (server default tightened by ?timeout=);
// a per-entry timeout tightens it further.
func (r queryRequest) toQuery(s *server, base *graphrnn.QueryOptions) (graphrnn.Query, error) {
	q := graphrnn.Query{K: r.K}
	if base != nil {
		q.QueryOptions = *base
	}
	switch r.Kind {
	case "", "rnn":
		q.Kind = graphrnn.KindRNN
	case "bichromatic":
		q.Kind = graphrnn.KindBichromatic
	case "continuous":
		q.Kind = graphrnn.KindContinuous
	case "knn":
		q.Kind = graphrnn.KindKNN
	default:
		return q, fmt.Errorf("unknown kind %q (want rnn, bichromatic, continuous or knn)", r.Kind)
	}
	if q.K == 0 {
		q.K = 1
	}
	switch {
	case q.Kind == graphrnn.KindContinuous:
		if r.Node != nil || r.Edge != nil {
			return q, fmt.Errorf("continuous queries take a route, not a node/edge target")
		}
		if len(r.Route) == 0 {
			return q, fmt.Errorf("continuous queries require a route")
		}
		q.Route = r.Route
	case r.Node != nil && r.Edge != nil:
		return q, fmt.Errorf("node and edge targets are mutually exclusive")
	case r.Node != nil:
		q.Target = graphrnn.NodeLocation(*r.Node)
	case r.Edge != nil:
		q.Target = graphrnn.EdgeLocation(r.Edge.U, r.Edge.V, r.Edge.Pos)
	default:
		return q, fmt.Errorf("missing target: set node (or edge), or route for continuous queries")
	}
	if len(r.Route) > 0 && q.Kind != graphrnn.KindContinuous {
		return q, fmt.Errorf("route is only meaningful for continuous queries")
	}
	switch r.Algo {
	case "", "auto":
		// Zero Algorithm: the planner decides.
	default:
		algo, err := s.algorithm(r.Algo)
		if err != nil {
			return q, err
		}
		q.Algorithm = algo
	}
	// A sharded server owns its point sets (the Sharded rejects explicit
	// Points/Sites); unsharded queries name the server's sets directly.
	if s.sharded == nil {
		q.Points = s.ps
	}
	if q.Kind == graphrnn.KindBichromatic {
		if s.sites == nil {
			return q, fmt.Errorf("bichromatic queries unavailable: server started without a site set (-sites 0)")
		}
		if s.sharded == nil {
			q.Sites = s.sites
		}
	}
	if r.Timeout != "" {
		d, err := time.ParseDuration(r.Timeout)
		if err != nil || d <= 0 {
			return q, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 50ms)", r.Timeout)
		}
		if q.Timeout == 0 || d < q.Timeout {
			q.Timeout = d
		}
	}
	return q, nil
}

// plannerCounters tallies the planner's substrate decisions for /stats —
// the per-substrate serving mix, and how often hints had to fall back.
type plannerCounters struct {
	mu        sync.Mutex
	decisions map[string]int64 // vetrnn:guardedby mu
	fallbacks int64            // vetrnn:guardedby mu
}

func (c *plannerCounters) record(p graphrnn.Plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.decisions == nil {
		c.decisions = make(map[string]int64)
	}
	c.decisions[p.Algorithm.String()]++
	if p.Fallback {
		c.fallbacks++
	}
}

// snapshot copies the counters for /stats; encoding/json sorts the
// decisions by key, so the section serializes identically run to run.
//
// vetrnn:deterministic
func (c *plannerCounters) snapshot() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	by := map[string]int64{} // never nil: an idle server renders {}
	maps.Copy(by, c.decisions)
	return map[string]any{"decisions": by, "fallbacks": c.fallbacks}
}

type planJSON struct {
	Algorithm string `json:"algorithm"`
	Fallback  bool   `json:"fallback"`
	Reason    string `json:"reason"`
}

func toPlanJSON(p graphrnn.Plan) planJSON {
	return planJSON{Algorithm: p.Algorithm.String(), Fallback: p.Fallback, Reason: p.Reason}
}

type neighborJSON struct {
	Point    graphrnn.PointID `json:"point"`
	Distance float64          `json:"distance"`
}

// queryResponse is one answered query on the wire.
type queryResponse struct {
	Kind      string             `json:"kind"`
	K         int                `json:"k"`
	Points    []graphrnn.PointID `json:"points,omitempty"`
	Neighbors []neighborJSON     `json:"neighbors,omitempty"`
	Stats     graphrnn.Stats     `json:"stats"`
	Plan      planJSON           `json:"plan"`
	Error     string             `json:"error,omitempty"`
}

func (s *server) toQueryResponse(q graphrnn.Query, res *graphrnn.Result, err error) queryResponse {
	out := queryResponse{Kind: q.Kind.String(), K: q.K}
	if err != nil {
		out.Error = err.Error()
	}
	if res == nil {
		return out
	}
	s.planner.record(res.Plan)
	out.Plan = toPlanJSON(res.Plan)
	out.Stats = res.Stats
	out.Points = res.Points
	if out.Points == nil && q.Kind != graphrnn.KindKNN {
		out.Points = []graphrnn.PointID{}
	}
	if q.Kind == graphrnn.KindKNN {
		out.Neighbors = make([]neighborJSON, len(res.Neighbors))
		for i, n := range res.Neighbors {
			out.Neighbors[i] = neighborJSON{Point: n.P, Distance: n.Distance}
		}
	}
	return out
}

// handleQuery serves POST /query: one declarative request object, or a JSON
// array of them as a batch (?parallelism=, ?fail_fast= tune the fan-out).
// Malformed JSON answers 400; a single query whose deadline passes answers
// 504.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	reqs, batch, err := decodeQueryBody(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	base, err := s.queryOptions(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	queries := make([]graphrnn.Query, len(reqs))
	for i, req := range reqs {
		q, err := req.toQuery(s, base)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("query %d: %w", i, err))
			return
		}
		queries[i] = q
	}

	// The sharded surface mirrors DB.Run/RunBatch, so the only fork is
	// which engine the queries hit.
	run := s.db.Run
	runBatch := s.db.RunBatch
	if s.sharded != nil {
		run = s.sharded.Run
		runBatch = s.sharded.RunBatch
	}

	if !batch {
		var res *graphrnn.Result
		s.reading(func() { res, err = run(r.Context(), queries[0]) })
		if err != nil {
			s.failQuery(w, err)
			return
		}
		s.served.Add(1)
		writeJSON(w, http.StatusOK, s.toQueryResponse(queries[0], res, nil))
		return
	}

	opt := &graphrnn.BatchOptions{}
	if v := r.URL.Query().Get("parallelism"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad parallelism parameter %q", v))
			return
		}
		opt.Parallelism = p
	}
	if v := r.URL.Query().Get("fail_fast"); v != "" {
		ff, err := strconv.ParseBool(v)
		if err != nil {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("bad fail_fast parameter %q", v))
			return
		}
		opt.FailFast = ff
	}
	var rep *graphrnn.BatchReport
	s.reading(func() { rep = runBatch(r.Context(), queries, opt) })
	results := make([]queryResponse, len(rep.Results))
	for i, br := range rep.Results {
		results[i] = s.toQueryResponse(queries[i], br.Result, br.Err)
		if br.Err != nil {
			s.errors.Add(1)
			if errors.Is(br.Err, graphrnn.ErrDeadlineExceeded) {
				s.timeouts.Add(1)
			}
		}
	}
	s.served.Add(int64(rep.Succeeded))
	writeJSON(w, http.StatusOK, map[string]any{
		"results":   results,
		"workers":   rep.Workers,
		"succeeded": rep.Succeeded,
		"failed":    rep.Failed,
		"wall_ms":   float64(rep.Wall.Microseconds()) / 1000.0,
	})
}

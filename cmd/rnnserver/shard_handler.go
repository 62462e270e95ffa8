package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"graphrnn"
)

// This file is the HTTP half of scatter-gather serving: the thin shard
// protocol that lets shard engines run as separate processes behind one
// coordinator. A shard process (started with the same -family/-nodes/
// -seed flags as the coordinator, so graph, point ids and partition agree
// deterministically) serves POST /shard/query; the coordinator (started
// with -shard-peers) implements graphrnn.ShardRunner over it. The
// coordinator re-verifies every candidate, so a buggy or hostile peer can
// cost work but never corrupt an answer.

// shardWireRequest is one shard sub-query on the wire. The coordinator
// derives it from the already-planned sub-query (deadline and budget carved
// from the parent query's), so unlike /query there is no server-side
// tightening here — options apply as given.
type shardWireRequest struct {
	// Shard is the shard index the sub-query addresses; a process started
	// with -shard-index rejects other indexes as misrouted.
	Shard int `json:"shard"`
	// Kind: "rnn", "bichromatic" or "continuous" (knn never fans out).
	Kind  string            `json:"kind"`
	Node  *graphrnn.NodeID  `json:"node,omitempty"`
	Route []graphrnn.NodeID `json:"route,omitempty"`
	K     int               `json:"k"`
	// Algo is a substrate-free hint ("eager", "lazy", "lazy-ep", "brute");
	// empty lets each shard's planner choose. Substrate-bound hints do not
	// travel (a remote process cannot share an index pointer).
	Algo   string `json:"algo,omitempty"`
	Strict bool   `json:"strict,omitempty"`
	// TimeoutNS is the derived per-shard deadline in nanoseconds;
	// MaxNodes/MaxIOReads carry this shard's share of the work budget.
	// Zero means unbounded.
	TimeoutNS  int64 `json:"timeout_ns,omitempty"`
	MaxNodes   int64 `json:"max_nodes,omitempty"`
	MaxIOReads int64 `json:"max_io_reads,omitempty"`
}

// shardWireResponse is the 200 envelope of one executed sub-query. Typed
// execution errors ride inside it (error + error_kind) next to the
// partial candidates, so a shard cut short by its deadline still
// contributes what it confirmed; protocol errors answer plain 400s.
type shardWireResponse struct {
	Candidates []graphrnn.PointID `json:"candidates"`
	Stats      graphrnn.Stats     `json:"stats"`
	Error      string             `json:"error,omitempty"`
	// ErrorKind names the typed execution error ("deadline", "canceled",
	// "budget") so the coordinator can rebuild it across the process
	// boundary; empty with a non-empty Error means a hard error.
	ErrorKind string `json:"error_kind,omitempty"`
}

// wireAlgo maps an Algorithm hint onto its wire name. Substrate-bound
// hints (eager-M, hub-label) are process-local pointers and cannot
// travel; shard processes attach their own substrates and their planners
// pick them when the hint is empty.
func wireAlgo(a graphrnn.Algorithm) (string, error) {
	switch name := a.String(); name {
	case "auto":
		return "", nil
	case "eager", "lazy":
		return name, nil
	case "lazy-EP":
		return "lazy-ep", nil
	case "brute-force":
		return "brute", nil
	default:
		return "", fmt.Errorf("algorithm hint %q does not travel over the shard wire; use auto and let each shard's planner pick its own substrate", name)
	}
}

// encodeShardQuery lifts a derived sub-query onto the wire.
func encodeShardQuery(sh int, q graphrnn.Query) (*shardWireRequest, error) {
	req := &shardWireRequest{
		Shard: sh, Kind: q.Kind.String(), K: q.K, Strict: q.Strict,
		TimeoutNS:  int64(q.Timeout),
		MaxNodes:   q.Budget.MaxNodes,
		MaxIOReads: q.Budget.MaxIOReads,
	}
	algo, err := wireAlgo(q.Algorithm)
	if err != nil {
		return nil, err
	}
	req.Algo = algo
	switch q.Kind {
	case graphrnn.KindContinuous:
		req.Route = q.Route
	default:
		if q.Target.U != q.Target.V {
			return nil, fmt.Errorf("edge targets do not travel over the shard wire (node-resident serving)")
		}
		req.Node = &q.Target.U
	}
	return req, nil
}

// toQuery rebuilds the sub-query on the shard side. Points and Sites stay
// nil: RunShard resolves them to the shard's own sets.
func (r shardWireRequest) toQuery(s *server) (graphrnn.Query, error) {
	q := graphrnn.Query{K: r.K, Strict: r.Strict}
	switch r.Kind {
	case "rnn":
		q.Kind = graphrnn.KindRNN
	case "bichromatic":
		q.Kind = graphrnn.KindBichromatic
	case "continuous":
		q.Kind = graphrnn.KindContinuous
	default:
		return q, fmt.Errorf("kind %q does not fan out over shards", r.Kind)
	}
	if q.Kind == graphrnn.KindContinuous {
		if len(r.Route) == 0 {
			return q, fmt.Errorf("continuous sub-queries require a route")
		}
		q.Route = r.Route
	} else {
		if r.Node == nil {
			return q, fmt.Errorf("missing node target")
		}
		q.Target = graphrnn.NodeLocation(*r.Node)
	}
	switch r.Algo {
	case "", "auto":
	case "eager", "lazy", "lazy-ep", "brute":
		algo, err := s.algorithm(r.Algo)
		if err != nil {
			return q, err
		}
		q.Algorithm = algo
	default:
		return q, fmt.Errorf("algorithm hint %q does not travel over the shard wire", r.Algo)
	}
	if r.TimeoutNS < 0 {
		return q, fmt.Errorf("negative timeout_ns")
	}
	q.Timeout = time.Duration(r.TimeoutNS)
	q.Budget = graphrnn.Budget{MaxNodes: r.MaxNodes, MaxIOReads: r.MaxIOReads}
	return q, nil
}

// wireErrKind names a typed execution error for the envelope.
func wireErrKind(err error) string {
	switch {
	case errors.Is(err, graphrnn.ErrDeadlineExceeded):
		return "deadline"
	case errors.Is(err, graphrnn.ErrCanceled):
		return "canceled"
	case errors.Is(err, graphrnn.ErrBudgetExceeded):
		return "budget"
	default:
		return ""
	}
}

// wireErr is a remote shard's error rebuilt on the coordinator: the
// remote message, unwrapping to the typed execution error it named, so
// errors.Is(err, ErrDeadlineExceeded) keeps working across the process
// boundary (a remote shard timeout still answers 504).
type wireErr struct {
	msg  string
	base error
}

func (e *wireErr) Error() string { return e.msg }
func (e *wireErr) Unwrap() error { return e.base }

// decodeWireError rebuilds the envelope's error, if any.
func decodeWireError(resp *shardWireResponse) error {
	if resp.Error == "" {
		return nil
	}
	switch resp.ErrorKind {
	case "deadline":
		return &wireErr{msg: resp.Error, base: graphrnn.ErrDeadlineExceeded}
	case "canceled":
		return &wireErr{msg: resp.Error, base: graphrnn.ErrCanceled}
	case "budget":
		return &wireErr{msg: resp.Error, base: graphrnn.ErrBudgetExceeded}
	default:
		return errors.New(resp.Error)
	}
}

// handleShardQuery serves POST /shard/query on a shard process: decode
// the sub-query, execute it on this process's shard engines, and answer
// the envelope. Executed sub-queries answer 200 even when cut short — the
// typed error travels inside the envelope with the partial candidates;
// only protocol errors (malformed body, misrouted index, bad hints)
// answer 400.
func (s *server) handleShardQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	var req shardWireRequest
	if err := strictUnmarshal(body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if s.shardIndex >= 0 && req.Shard != s.shardIndex {
		s.fail(w, http.StatusBadRequest,
			fmt.Errorf("misrouted sub-query: this process serves shard %d, not %d", s.shardIndex, req.Shard))
		return
	}
	q, err := req.toQuery(s)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	var sr *graphrnn.ShardResult
	var runErr error
	s.reading(func() { sr, runErr = s.sharded.RunShard(r.Context(), req.Shard, q) })
	if runErr != nil && !graphrnn.IsExecErr(runErr) {
		s.fail(w, http.StatusBadRequest, runErr)
		return
	}
	resp := shardWireResponse{Candidates: []graphrnn.PointID{}}
	if sr != nil {
		if sr.Candidates != nil {
			resp.Candidates = sr.Candidates
		}
		resp.Stats = sr.Stats
	}
	// Counted like a /query batch entry: cut short is an error, not served.
	if runErr != nil {
		s.errors.Add(1)
		if errors.Is(runErr, graphrnn.ErrDeadlineExceeded) {
			s.timeouts.Add(1)
		}
		resp.Error = runErr.Error()
		resp.ErrorKind = wireErrKind(runErr)
	} else {
		s.served.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// httpShardRunner is the coordinator's graphrnn.ShardRunner over the
// shard wire: sub-query i goes to peers[i]'s POST /shard/query. Typed
// execution errors are rebuilt from the envelope so partial answers and
// 504 semantics survive the process boundary; transport failures and
// protocol rejections surface as hard errors.
type httpShardRunner struct {
	peers  []string
	client *http.Client
}

func newHTTPShardRunner(peers []string) *httpShardRunner {
	return &httpShardRunner{peers: peers, client: &http.Client{}}
}

func (h *httpShardRunner) RunShard(ctx context.Context, sh int, q graphrnn.Query) (*graphrnn.ShardResult, error) {
	if sh < 0 || sh >= len(h.peers) {
		return nil, fmt.Errorf("shard %d out of range: %d peers configured", sh, len(h.peers))
	}
	wire, err := encodeShardQuery(sh, q)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, err
	}
	url := strings.TrimRight(h.peers[sh], "/") + "/shard/query"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("shard peer %s unreachable: %w", h.peers[sh], err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxQueryBody))
	if err != nil {
		return nil, fmt.Errorf("reading shard peer %s response: %w", h.peers[sh], err)
	}
	if resp.StatusCode != http.StatusOK {
		var fail errResponse
		if json.Unmarshal(data, &fail) == nil && fail.Error != "" {
			return nil, fmt.Errorf("shard peer %s answered %d: %s", h.peers[sh], resp.StatusCode, fail.Error)
		}
		return nil, fmt.Errorf("shard peer %s answered %d", h.peers[sh], resp.StatusCode)
	}
	var envelope shardWireResponse
	if err := json.Unmarshal(data, &envelope); err != nil {
		return nil, fmt.Errorf("bad shard peer %s response: %w", h.peers[sh], err)
	}
	sr := &graphrnn.ShardResult{
		Candidates: envelope.Candidates,
		Stats:      envelope.Stats,
	}
	return sr, decodeWireError(&envelope)
}

// shardStatsSection renders the coordinator's scatter-gather counters for
// /stats: partition shape, fan-out and verification totals, and one entry
// per shard (sub-query counts, failures, candidates proposed, cumulative
// latency).
func shardStatsSection(role string, st graphrnn.ShardedStats) map[string]any {
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
		"role":            role,
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

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"time"
)

// runConfig is what the flags decide for every workload of an invocation.
type runConfig struct {
	seed      int64
	seconds   float64 // timed traffic per workload, all rounds together
	rounds    int     // 0: each workload's own count
	smoke     bool
	serverBin string
	selfBin   string // this binary: it also serves the reference (-refserver)
}

// roundsOf is how many rounds w's timed traffic is cut into.
func (cfg runConfig) roundsOf(w *workload) int {
	if cfg.rounds > 0 {
		return cfg.rounds
	}
	return w.rounds
}

const (
	// warmSeconds of untimed traffic precede the rounds, so caches, the
	// pool and the Go scheduler reach a steady state first.
	warmSeconds = 2
	// oracleChecks bounds the brute-force recomputations per workload
	// (about 7 ms each on the tracked network).
	oracleChecks = 150
	// oracleStride is the densest sampling of responses: every 25th.
	oracleStride = 25
	// stateProbes fixed queries check a mixed_rw server against the
	// oracle after every round, once the point set is back at its start.
	stateProbes = 50
)

// tally counts operations against failures. A failed operation is a
// refused, timed-out or non-200 request, a response that does not decode,
// an answer that disagrees with the oracle, or a failed state check.
type tally struct {
	attempted, failed int
	reasons           []string // the first few, for the report
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// round is one timed round's raw outcome.
type round struct {
	reqs    []request
	samples []sample // index-aligned with reqs; only the first sent are meaningful
	sent    int
	wall    time.Duration // of the read loop
	cpu     float64       // server CPU seconds spent during the round
	rss     float64       // server VmRSS when the round ended, MiB
	// The reference slices around the round (ref.go): the timing values
	// of the round are scaled by what they measured.
	refBefore, refAfter refSample
	writes              []writeSample
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Workload  string               `json:"workload"`
	Requests  int                  `json:"requests_per_round"`
	Rounds    int                  `json:"rounds"`
	Setups    []float64            `json:"setup_s_each"`
	PerRound  map[string][]float64 `json:"per_round"`
	EndToEnd  map[string]float64   `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer,omitempty"`
	SHA       string               `json:"answers_sha256,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`

	// Kept for the traced run: the requests of the quietest round (lowest
	// p50) and their HTTP latencies in ms (0 for a failed request),
	// index-aligned.
	replayReqs []request
	replayLat  []float64
}

func getJSON(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// runWorkload benchmarks w end to end over a real rnnserver child process:
// the traffic first, then — off the clock, the server gone — decoding, the
// correctness gate and the metrics. live receives every server while it
// runs, so a signal or the watchdog can end it.
func runWorkload(ctx context.Context, cfg runConfig, w *workload, d *dataset, live *liveServer) (*workloadResult, error) {
	rounds := cfg.roundsOf(w)
	res := &workloadResult{Workload: w.name, Rounds: rounds, Requests: w.perRound(cfg.seconds, rounds), PerRound: map[string][]float64{}}
	var t tally
	m, err := drive(ctx, cfg, w, d, live, res, &t)
	if err != nil {
		return nil, err
	}
	if err := analyze(cfg, w, d, m, res, &t); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.Failures = t.attempted, t.failed, t.reasons
	res.PerLayer["client.error_rate"] = ratio(float64(t.failed), float64(t.attempted))
	return res, nil
}

// measured is what the traffic phase hands to the analysis.
type measured struct {
	rounds        []round
	before, after flatStats // /stats around the timed rounds
	hwm           float64   // VmHWM after the last round, MiB
}

// drive starts the server (several times, for setup_s), warms it up, runs
// the timed rounds and stops it. Failed operations go to t; an error means
// the run itself could not be completed.
func drive(ctx context.Context, cfg runConfig, w *workload, d *dataset, live *liveServer, res *workloadResult, t *tally) (*measured, error) {
	// The request sequence: one block per round, then the warm-up block,
	// generated last so its size never shifts the timed requests.
	gen := newGenerator(w, d, cfg.seed)
	blockLen := res.Requests
	if w.writeRate > 0 {
		// Rounds end with the writer's schedule; give the reader more
		// than it can send in that time.
		blockLen *= 2
	}
	m := &measured{rounds: make([]round, res.Rounds)}
	for r := range m.rounds {
		reqs, err := gen.block(blockLen)
		if err != nil {
			return nil, err
		}
		m.rounds[r].reqs = reqs
	}
	warmLen, setups := max(int(w.rate*warmSeconds), 1), w.setups
	if cfg.smoke {
		warmLen, setups = min(warmLen, 20), 1
	}
	warm, err := gen.block(warmLen)
	if err != nil {
		return nil, err
	}

	// Set-up, several times over: exec -> first 200 on /healthz. The last
	// server stays up for the traffic.
	args := append(d.serverFlags(), w.serverFlags()...)
	var srv *server
	for i := range setups {
		s, took, err := startServer(ctx, cfg.serverBin, args)
		if err != nil {
			return nil, err
		}
		live.set(s)
		res.Setups = append(res.Setups, took.Seconds())
		if i < setups-1 {
			if err := s.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = s
	}
	// From here on the server is ended on every path.
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
			fmt.Fprintf(os.Stderr, "rnnserver killed after a failed run; last log lines:\n%s\n", srv.log.tail(logTailLines))
		}
		live.set(nil)
	}()

	// The reference server: the yardstick every round is scaled by.
	ref, err := startReference(ctx, cfg, w, live)
	if err != nil {
		return nil, err
	}
	defer ref.close(live)

	conns := make([]*conn, w.conns)
	for i := range conns {
		conns[i] = newConn(srv.base)
		defer conns[i].close()
	}
	// /stats and state checks, never concurrent with timed reads.
	control := &http.Client{Timeout: requestTimeout}
	defer control.CloseIdleConnections()

	// Warm-up, untimed but not unchecked.
	ws, _, _ := closedLoop(conns, warm, nil)
	for i, s := range ws {
		t.attempted++
		if !s.ok {
			t.fail("warm-up request %d: %s", i, s.fail)
		}
	}

	var wr *writer
	var probeConn *conn
	var probes []request
	var probeAnswers [][]int
	if w.writeRate > 0 {
		free := d.freeNodes()
		rand.New(rand.NewSource(cfg.seed)).Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		wr = &writer{conn: newConn(srv.base), free: free, point: -1}
		defer wr.conn.close()
		probeConn = newConn(srv.base)
		defer probeConn.close()
		if probes, probeAnswers, err = stateProbeSet(w, d); err != nil {
			return nil, err
		}
	}

	if m.before, _, err = fetchStats(control, srv.base); err != nil {
		return nil, err
	}
	// The load generator shares two cores with the server: keep its
	// collector out of the timed rounds and collect between them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var slice refSample // the one after the previous round is the one before this
	if slice, err = ref.slice(); err != nil {
		return nil, err
	}
	for r := range m.rounds {
		rd := &m.rounds[r]
		rd.refBefore = slice
		runtime.GC()
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		if wr == nil {
			rd.samples, rd.sent, rd.wall = closedLoop(conns, rd.reqs, nil)
		} else {
			stop := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				rd.samples, rd.sent, rd.wall = closedLoop(conns, rd.reqs, stop)
			}()
			// An even count, so the last insert is deleted again.
			nWrites := 2 * max(int(w.writeRate*cfg.seconds/float64(res.Rounds)/2), 1)
			interval := time.Duration(float64(time.Second) / w.writeRate)
			rd.writes = openLoop(nWrites, interval, time.Now, time.Sleep, wr.op)
			close(stop)
			<-done
		}
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		rd.cpu = cpu1 - cpu0
		if rd.rss, err = srv.statusMiB("VmRSS"); err != nil {
			return nil, err
		}
		if slice, err = ref.slice(); err != nil {
			return nil, err
		}
		rd.refAfter = slice
		if wr != nil {
			checkState(control, probeConn, srv.base, d, probes, probeAnswers, r, t)
		}
	}
	if m.after, _, err = fetchStats(control, srv.base); err != nil {
		return nil, err
	}
	if m.hwm, err = srv.statusMiB("VmHWM"); err != nil {
		return nil, err
	}
	stopped = true
	return m, srv.stop()
}

func describeQuery(q query) string {
	b, err := json.Marshal(q)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// fetchStats snapshots /stats: its numeric leaves and its string leaves.
func fetchStats(c *http.Client, base string) (flatStats, map[string]string, error) {
	body, err := getJSON(c, base+"/stats")
	if err != nil {
		return nil, nil, err
	}
	return parseStats(body)
}

// stateProbeSet builds the fixed probe queries of the mixed_rw state check
// (the same for every workload seed) and their oracle answers.
func stateProbeSet(w *workload, d *dataset) ([]request, [][]int, error) {
	probes, err := newGenerator(w, d, 1).block(stateProbes)
	if err != nil {
		return nil, nil, err
	}
	answers := make([][]int, len(probes))
	for i := range probes {
		if answers[i], err = d.oracle(probes[i].queries[0]); err != nil {
			return nil, nil, fmt.Errorf("oracle: %w", err)
		}
	}
	return probes, answers, nil
}

// checkState verifies, after a mixed_rw round, that the server is back at
// its start state: the original point count, a clean repair state, and
// oracle-exact answers to the fixed probes.
func checkState(c *http.Client, pc *conn, base string, d *dataset, probes []request, want [][]int, r int, t *tally) {
	t.attempted++
	nums, strs, err := fetchStats(c, base)
	if err != nil {
		t.fail("round %d state check: %v", r, err)
		return
	}
	if got := int(nums["points"]); got != d.ps.Len() {
		t.fail("round %d state check: %d points, want %d", r, got, d.ps.Len())
	}
	if got := strs["mat.repair_state"]; got != "clean" {
		t.fail("round %d state check: repair_state %q, want clean", r, got)
	}
	for i := range probes {
		t.attempted++
		s := pc.post(probes[i].path, probes[i].body)
		if !s.ok {
			t.fail("round %d probe %d: %s", r, i, s.fail)
			continue
		}
		answers, err := decodeAnswers(&probes[i], s.body)
		if err != nil {
			t.fail("round %d probe %d: %v", r, i, err)
			continue
		}
		if got := answers[0].members(); !slices.Equal(got, want[i]) {
			t.fail("round %d probe %d (%s): got %v, oracle %v", r, i, describeQuery(probes[i].queries[0]), got, want[i])
		}
	}
}

// formatCounts renders the request counts of a workload for the header.
func formatCounts(cfg runConfig, w *workload) string {
	rounds := cfg.roundsOf(w)
	per := w.perRound(cfg.seconds, rounds)
	s := strconv.Itoa(rounds) + " x " + strconv.Itoa(per) + " requests"
	if w.batch > 1 {
		s += " of " + strconv.Itoa(w.batch) + " queries"
	}
	if w.writeRate > 0 {
		s = fmt.Sprintf("%d x %.1f s of reads beside %g writes/s", rounds, cfg.seconds/float64(rounds), w.writeRate)
	}
	return s + ", " + strconv.Itoa(w.conns) + " connection(s)"
}

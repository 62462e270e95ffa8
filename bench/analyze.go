package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// wireResult is the part of one /query answer the benchmark reads.
type wireResult struct {
	Points    []int `json:"points"`
	Neighbors []struct {
		Point int `json:"point"`
	} `json:"neighbors"`
	Stats wireStats `json:"stats"`
	Error string    `json:"error"`
}

type wireStats struct {
	NodesExpanded int64 `json:"nodes_expanded"`
	NodesScanned  int64 `json:"nodes_scanned"`
	RangeNN       int64 `json:"range_nn"`
	Verifications int64 `json:"verifications"`
	MatReads      int64 `json:"mat_reads"`
	LabelReads    int64 `json:"label_reads"`
	LabelEntries  int64 `json:"label_entries"`
	HeapPushes    int64 `json:"heap_pushes"`
	HeapPops      int64 `json:"heap_pops"`
}

func (r *wireResult) members() []int {
	ids := slices.Clone(r.Points)
	for _, n := range r.Neighbors {
		ids = append(ids, n.Point)
	}
	sort.Ints(ids)
	return ids
}

// decodeAnswers parses one 200 body into one result per query of rq.
func decodeAnswers(rq *request, body []byte) ([]wireResult, error) {
	var results []wireResult
	if !rq.batch {
		results = make([]wireResult, 1)
		if err := json.Unmarshal(body, &results[0]); err != nil {
			return nil, err
		}
	} else {
		var batch struct {
			Results []wireResult `json:"results"`
		}
		if err := json.Unmarshal(body, &batch); err != nil {
			return nil, err
		}
		results = batch.Results
	}
	if len(results) != len(rq.queries) {
		return nil, fmt.Errorf("%d answers for %d queries", len(results), len(rq.queries))
	}
	for i := range results {
		if results[i].Error != "" {
			return nil, fmt.Errorf("query %d: %s", i, results[i].Error)
		}
	}
	return results, nil
}

// analyze decodes the answers, applies the correctness gate and fills res
// with the end-to-end metrics and the per-layer metrics the HTTP run sees.
func analyze(cfg runConfig, w *workload, d *dataset, m *measured, res *workloadResult, t *tally) error {
	agg := newAggregate(w)
	hash := sha256.New()
	readOnly := w.writeRate == 0 // otherwise reads race the writer and answers depend on timing
	stride := max(oracleStride, (res.Rounds*res.Requests*w.batch+oracleChecks-1)/oracleChecks)
	nthQuery := 0
	quietest := -1 // the round with the lowest p50
	for r := range m.rounds {
		rd := &m.rounds[r]
		var lats, wlats []float64
		okQueries, okWrites := 0, 0
		for i := range rd.sent {
			s, rq := &rd.samples[i], &rd.reqs[i]
			t.attempted++
			if !s.ok {
				t.fail("round %d request %d: %s", r, i, s.fail)
				continue
			}
			answers, err := decodeAnswers(rq, s.body)
			if err != nil {
				t.fail("round %d request %d: %v", r, i, err)
				continue
			}
			lats = append(lats, ms(s.lat))
			agg.addLatency(rq.class, ms(s.lat))
			okQueries += len(answers)
			for j := range answers {
				members := answers[j].members()
				agg.addStats(answers[j].Stats, len(members))
				if !readOnly {
					continue
				}
				fmt.Fprintf(hash, "%d.%d.%d:%v\n", r, i, j, members)
				if nthQuery++; nthQuery%stride != 0 {
					continue
				}
				want, err := d.oracle(rq.queries[j])
				if err != nil {
					return fmt.Errorf("oracle: %w", err)
				}
				t.attempted++
				if !slices.Equal(members, want) {
					t.fail("round %d request %d query %d (%s): got %v, oracle %v", r, i, j, describeQuery(rq.queries[j]), members, want)
				}
			}
		}
		for i, ws := range rd.writes {
			t.attempted++
			if !ws.ok {
				t.fail("round %d write %d: %s", r, i, ws.fail)
				continue
			}
			okWrites++
			wlats = append(wlats, ms(ws.lat))
			agg.lates = append(agg.lates, ms(ws.late))
		}
		sort.Float64s(lats)
		p50, ok50 := percentile(lats, 50)
		p95, ok95 := percentile(lats, 95)
		if (!ok50 || !ok95) && !cfg.smoke {
			return fmt.Errorf("round %d has %d latency samples: too few for a p95 with %d samples beyond it", r, len(lats), minBeyond)
		}
		// The timing values, as measured (raw.*) and scaled by the
		// reference slices around the round.
		raw := map[string]float64{
			"p50_ms": p50, "p95_ms": p95,
			"qps":           float64(okQueries) / rd.wall.Seconds(),
			"cpu_ms_per_op": ratio(rd.cpu*1000, float64(okQueries+okWrites)),
		}
		for name, factor := range w.ref.scale(rd.refBefore, rd.refAfter) {
			res.PerRound["raw."+name] = append(res.PerRound["raw."+name], raw[name])
			res.PerRound[name] = append(res.PerRound[name], raw[name]*factor)
			res.PerRound["ref."+name+"_scale"] = append(res.PerRound["ref."+name+"_scale"], factor)
		}
		if n := len(res.PerRound["p50_ms"]); quietest < 0 || res.PerRound["p50_ms"][n-1] < res.PerRound["p50_ms"][quietest] {
			quietest = r
		}
		res.PerRound["rss_mb"] = append(res.PerRound["rss_mb"], rd.rss)
		if len(wlats) > 0 {
			sort.Float64s(wlats)
			w50, _ := percentile(wlats, 50) // a diagnostic: reported whatever the count
			res.PerRound["client.write_p50_ms"] = append(res.PerRound["client.write_p50_ms"], w50)
		}
		agg.queries += okQueries
	}
	if readOnly {
		res.SHA = hex.EncodeToString(hash.Sum(nil))
	}

	rd := &m.rounds[quietest]
	res.replayReqs, res.replayLat = rd.reqs[:rd.sent], make([]float64, rd.sent)
	for i, s := range rd.samples[:rd.sent] {
		if s.ok {
			res.replayLat[i] = ms(s.lat)
		}
	}

	res.EndToEnd = map[string]float64{"setup_s": median(res.Setups), "rss_mb": median(res.PerRound["rss_mb"])}
	for _, d := range endToEnd {
		if each, timed := res.PerRound[d.Name]; timed && d.Name != "rss_mb" {
			res.EndToEnd[d.Name] = quietQuartile(each, d.Better)
		}
	}
	res.PerLayer = agg.metrics(m.before.diff(m.after))
	res.PerLayer["client.write_p50_ms"] = median(res.PerRound["client.write_p50_ms"])
	for _, d := range endToEnd {
		if each, scaled := res.PerRound["raw."+d.Name]; scaled {
			res.PerLayer["raw."+d.Name] = quietQuartile(each, d.Better)
			res.PerLayer["ref."+d.Name+"_scale"] = median(res.PerRound["ref."+d.Name+"_scale"])
		}
	}
	res.PerLayer["rnnserver.rss_hwm_mb"] = m.hwm
	return nil
}

// aggregate accumulates what the per-layer metrics are computed from.
type aggregate struct {
	w       *workload
	queries int // 200-answered queries of the timed rounds
	stats   wireStats
	members int
	all     []float64   // every read latency, rounds pooled
	byClass [][]float64 // read latencies per class
	lates   []float64   // writer lateness
}

func newAggregate(w *workload) *aggregate {
	return &aggregate{w: w, byClass: make([][]float64, len(w.classes))}
}

func (a *aggregate) addLatency(class int, lat float64) {
	a.all = append(a.all, lat)
	a.byClass[class] = append(a.byClass[class], lat)
}

func (a *aggregate) addStats(s wireStats, members int) {
	a.stats.NodesExpanded += s.NodesExpanded
	a.stats.NodesScanned += s.NodesScanned
	a.stats.RangeNN += s.RangeNN
	a.stats.Verifications += s.Verifications
	a.stats.MatReads += s.MatReads
	a.stats.LabelReads += s.LabelReads
	a.stats.LabelEntries += s.LabelEntries
	a.stats.HeapPushes += s.HeapPushes
	a.stats.HeapPops += s.HeapPops
	a.members += members
}

// metrics turns the aggregate and the /stats diff around the rounds into
// the per-layer metrics the HTTP run can see.
func (a *aggregate) metrics(d flatStats) map[string]float64 {
	m := map[string]float64{}
	ops := float64(a.queries)
	perOp := func(v int64) float64 { return ratio(float64(v), ops) }

	sort.Float64s(a.all)
	if p99, ok := percentile(a.all, 99); ok {
		m["client.p99_ms"] = p99
	}
	if n := len(a.all); n > 0 {
		m["client.max_ms"] = a.all[n-1]
	}
	m["client.samples"] = float64(len(a.all))
	for c, lats := range a.byClass {
		sort.Float64s(lats)
		if p50, ok := percentile(lats, 50); ok {
			m["client."+a.w.classes[c].name+"_p50_ms"] = p50
		}
	}
	sort.Float64s(a.lates)
	if p95, ok := percentile(a.lates, 95); ok {
		m["client.writer_late_ms_p95"] = p95
	}

	m["core.nodes_expanded_per_op"] = perOp(a.stats.NodesExpanded)
	m["core.nodes_scanned_per_op"] = perOp(a.stats.NodesScanned)
	m["core.range_nn_per_op"] = perOp(a.stats.RangeNN)
	m["core.verifications_per_op"] = perOp(a.stats.Verifications)
	m["core.mat_reads_per_op"] = perOp(a.stats.MatReads)
	m["core.members_per_op"] = perOp(int64(a.members))
	m["pq.heap_pushes_per_op"] = perOp(a.stats.HeapPushes)
	m["pq.heap_pops_per_op"] = perOp(a.stats.HeapPops)
	m["hublabel.label_reads_per_op"] = perOp(a.stats.LabelReads)
	m["hublabel.label_entries_per_op"] = perOp(a.stats.LabelEntries)

	hitRate := func(prefix string) float64 {
		return ratio(d[prefix+".hits"], d[prefix+".hits"]+d[prefix+".reads"])
	}
	m["storage.pool_hit_rate"] = hitRate("pool")
	m["storage.pool_reads_per_op"] = ratio(d["pool.reads"], ops)
	m["storage.pool_evictions_per_op"] = ratio(d["pool.evictions"], ops)
	m["storage.graph_hit_rate"] = hitRate("pool.tenants.graph")
	m["storage.mat_hit_rate"] = hitRate("pool.tenants.mat")

	decisions := 0.0
	for _, algo := range planAlgorithms {
		decisions += d["planner.decisions."+algo]
	}
	for _, algo := range planAlgorithms {
		m["plan.decisions_"+algo+"_share"] = ratio(d["planner.decisions."+algo], decisions)
	}
	m["plan.fallback_share"] = ratio(d["planner.fallbacks"], decisions)

	sq := d["shards.queries"]
	m["sharded.fanout_per_op"] = ratio(d["shards.fan_outs"], sq)
	m["sharded.candidates_per_op"] = ratio(d["shards.candidates"], sq)
	m["sharded.verify_runs_per_op"] = ratio(d["shards.verify_runs"], sq)
	m["sharded.verify_rejected_per_op"] = ratio(d["shards.verify_rejected"], sq)
	latSum, latMax := d.sumPrefix("shards.per_shard.", "latency_ms")
	m["sharded.shard_latency_us_per_op"] = ratio(latSum*1000, sq)
	m["sharded.slowest_shard_share"] = ratio(latMax, latSum)

	m["rnnserver.hub_repairs"] = d["hublabel.repairs"]
	m["rnnserver.hub_rebuilds"] = d["hublabel.rebuilds"]
	m["rnnserver.query_errors"] = d["query_errors"]
	m["rnnserver.query_timeouts"] = d["query_timeouts"]
	return m
}

package main

import "encoding/json"

// metricDef names one metric of the benchmark contract. The tables below
// are the single source BENCHMARK.json is written from (-describe) and the
// key set of the final result line.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
	// moves says which end-to-end metric, on which workload, the layer
	// metric should move; it is documentation, printed beside the value.
	moves string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a client or operator of the server sees. Every workload
// reports every one of them. The bounds are the contract's ceiling, 25 %:
// pinned to one CPU the timing metrics spread by 3-8 % of their median run
// to run on the reference box (README.md has the two measured sets), a
// third of the bound; the first acceptance check of this benchmark, not yet
// pinned, saw 28-33 % on the same box, so the margin is kept.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "qps", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: lower, Bound: 0.25},
}

// perLayer attributes the end-to-end numbers to layers, measured from
// outside the program. A workload that never enters a layer reports 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// The load generator's own view.
		{Name: "client.p99_ms", Unit: "ms", Better: lower, moves: "diagnostic: tail of p95_ms, all rounds pooled"},
		{Name: "client.max_ms", Unit: "ms", Better: lower, moves: "diagnostic"},
		{Name: "client.samples", Unit: "count", Better: higher, moves: "diagnostic: 200-answered reads behind the latency figures"},
		{Name: "client.error_rate", Unit: "ratio", Better: lower, moves: "failed / attempted; any rise is a failure"},
		{Name: "client.write_p50_ms", Unit: "ms", Better: lower, moves: "mixed_rw: insert/delete latency from due time"},
		{Name: "client.writer_late_ms_p95", Unit: "ms", Better: lower, moves: "mixed_rw: how late the open-loop writer sent"},
	}
	// The end-to-end timing metrics before scaling, and the scale factors
	// the reference server gave (ref.go): nominal / measured, above 1 when
	// the machine ran slower than the reference box usually does.
	for _, name := range []string{"p50_ms", "p95_ms", "qps", "cpu_ms_per_op"} {
		d := metricDef{Name: "raw." + name, Unit: "ms", Better: lower, moves: "diagnostic: " + name + " as measured, before the reference scaling"}
		if name == "qps" {
			d.Unit, d.Better = "1/s", higher
		}
		defs = append(defs, d,
			metricDef{Name: "ref." + name + "_scale", Unit: "ratio", Better: lower, moves: "diagnostic: median scale factor of " + name + "; the machine's speed, not the program's"})
	}
	// Per request class p50: locates which algorithm moved a mixed
	// workload's p50_ms / qps.
	seen := map[string]bool{}
	for _, w := range workloads {
		for _, c := range w.classes {
			if !seen[c.name] {
				seen[c.name] = true
				defs = append(defs, metricDef{Name: "client." + c.name + "_p50_ms", Unit: "ms", Better: lower,
					moves: "per-class p50: which algorithm moved p50_ms/qps"})
			}
		}
	}
	defs = append(defs,
		// Summed from the stats block of every /query response; exact for
		// a fixed seed on the read-only workloads.
		metricDef{Name: "core.nodes_expanded_per_op", Unit: "count/op", Better: lower, moves: "expand_cold cpu_ms_per_op, p50_ms"},
		metricDef{Name: "core.nodes_scanned_per_op", Unit: "count/op", Better: lower, moves: "expand_cold cpu_ms_per_op, p50_ms; shard_batch (verify runs)"},
		metricDef{Name: "core.range_nn_per_op", Unit: "count/op", Better: lower, moves: "expand_cold cpu_ms_per_op"},
		metricDef{Name: "core.verifications_per_op", Unit: "count/op", Better: lower, moves: "expand_cold cpu_ms_per_op; shard_batch"},
		metricDef{Name: "core.mat_reads_per_op", Unit: "count/op", Better: lower, moves: "expand_cold (eager-M share)"},
		metricDef{Name: "core.members_per_op", Unit: "count/op", Better: higher, moves: "answer size; must not move"},
		metricDef{Name: "pq.heap_pushes_per_op", Unit: "count/op", Better: lower, moves: "expand_cold cpu_ms_per_op"},
		metricDef{Name: "pq.heap_pops_per_op", Unit: "count/op", Better: lower, moves: "expand_cold cpu_ms_per_op"},
		metricDef{Name: "hublabel.label_reads_per_op", Unit: "count/op", Better: lower, moves: "hub_point, shard_batch cpu_ms_per_op"},
		metricDef{Name: "hublabel.label_entries_per_op", Unit: "count/op", Better: lower, moves: "hub_point, shard_batch cpu_ms_per_op"},
		// /stats, diffed around the timed rounds.
		metricDef{Name: "storage.pool_hit_rate", Unit: "ratio", Better: higher, moves: "expand_cold p50_ms, p95_ms"},
		metricDef{Name: "storage.pool_reads_per_op", Unit: "count/op", Better: lower, moves: "expand_cold p50_ms: the paper's page accesses"},
		metricDef{Name: "storage.pool_evictions_per_op", Unit: "count/op", Better: lower, moves: "expand_cold p50_ms, p95_ms"},
		metricDef{Name: "storage.graph_hit_rate", Unit: "ratio", Better: higher, moves: "expand_cold p50_ms"},
		metricDef{Name: "storage.mat_hit_rate", Unit: "ratio", Better: higher, moves: "expand_cold (eager-M), mixed_rw write_p50"},
	)
	for _, algo := range planAlgorithms {
		defs = append(defs, metricDef{Name: "plan.decisions_" + algo + "_share", Unit: "ratio", Better: higher,
			moves: "which substrate served; must not move unless the planner changed"})
	}
	defs = append(defs,
		metricDef{Name: "plan.fallback_share", Unit: "ratio", Better: lower, moves: "hints the planner replaced"},
		metricDef{Name: "sharded.fanout_per_op", Unit: "count/op", Better: lower, moves: "shard_batch p50_ms, qps"},
		metricDef{Name: "sharded.candidates_per_op", Unit: "count/op", Better: lower, moves: "shard_batch p50_ms"},
		metricDef{Name: "sharded.verify_runs_per_op", Unit: "count/op", Better: lower, moves: "shard_batch p50_ms, cpu_ms_per_op"},
		metricDef{Name: "sharded.verify_rejected_per_op", Unit: "count/op", Better: lower, moves: "shard_batch: halo misses"},
		metricDef{Name: "sharded.shard_latency_us_per_op", Unit: "us/op", Better: lower, moves: "shard_batch p50_ms: summed over the 4 shards"},
		metricDef{Name: "sharded.slowest_shard_share", Unit: "ratio", Better: lower, moves: "shard_batch p50_ms: a query waits for its slowest shard"},
		metricDef{Name: "rnnserver.hub_repairs", Unit: "count", Better: higher, moves: "mixed_rw write_p50: one per write"},
		metricDef{Name: "rnnserver.hub_rebuilds", Unit: "count", Better: lower, moves: "mixed_rw p95_ms: a rebuild is a spike"},
		metricDef{Name: "rnnserver.rss_hwm_mb", Unit: "MiB", Better: lower, moves: "diagnostic: peak resident set (VmHWM); set by where the collector stood during the label build"},
		metricDef{Name: "rnnserver.query_errors", Unit: "count", Better: lower, moves: "must stay 0"},
		metricDef{Name: "rnnserver.query_timeouts", Unit: "count", Better: lower, moves: "must stay 0"},
		// The in-process replay of the traced run.
		metricDef{Name: "graphrnn.plan_us_p50", Unit: "us", Better: lower, moves: "hub_point p50_ms, cpu_ms_per_op"},
		metricDef{Name: "graphrnn.run_us_p50", Unit: "us", Better: lower, moves: "engine time of one request (batch workloads: one batch)"},
		metricDef{Name: "rnnserver.overhead_us_p50", Unit: "us", Better: lower, moves: "hub_point p50_ms: median over requests of HTTP latency minus in-process time"},
		metricDef{Name: "rnnserver.overhead_share", Unit: "ratio", Better: lower, moves: "overhead_us_p50 over the HTTP p50 of the same requests"},
		metricDef{Name: "sharded.run_us_p50", Unit: "us", Better: lower, moves: "shard_batch p50_ms: one scatter-gather query"},
		metricDef{Name: "sharded.fanout_us_p50", Unit: "us", Better: lower, moves: "shard_batch p50_ms: union of the RunShard spans"},
		metricDef{Name: "sharded.coordinator_self_us_p50", Unit: "us", Better: lower, moves: "shard_batch p50_ms: merge + re-verify"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: lower, moves: "what recording spans costs the replay"},
		// Timed calls into each internal layer (the same for every workload).
		metricDef{Name: "pq.push_pop_ns", Unit: "ns", Better: lower, moves: "expand_cold cpu_ms_per_op"},
		metricDef{Name: "graph.adjacency_ns", Unit: "ns", Better: lower, moves: "setup_s (builds read the CSR graph)"},
		metricDef{Name: "storage.diskstore_adjacency_ns", Unit: "ns", Better: lower, moves: "expand_cold cpu_ms_per_op, p50_ms"},
		metricDef{Name: "storage.get_hit_ns", Unit: "ns", Better: lower, moves: "expand_cold p50_ms"},
		metricDef{Name: "storage.get_miss_ns", Unit: "ns", Better: lower, moves: "expand_cold p95_ms"},
		metricDef{Name: "exec.check_ns", Unit: "ns", Better: lower, moves: "every workload: one poll per expansion step"},
		metricDef{Name: "hublabel.out_label_us", Unit: "us", Better: lower, moves: "hub_point, shard_batch cpu_ms_per_op"},
		metricDef{Name: "hublabel.rknn_us", Unit: "us", Better: lower, moves: "hub_point, shard_batch cpu_ms_per_op"},
		metricDef{Name: "hublabel.build_s", Unit: "s", Better: lower, moves: "setup_s of hub_point, shard_batch, mixed_rw"},
		metricDef{Name: "hublabel.label_entries", Unit: "count", Better: lower, moves: "rss_mb of the hub-label workloads"},
		metricDef{Name: "shard.cut_ms", Unit: "ms", Better: lower, moves: "setup_s of shard_batch"},
		metricDef{Name: "gen.road_s", Unit: "s", Better: lower, moves: "setup_s of every workload"},
	)
	return defs
}

// planAlgorithms are the substrate names Plan.Algorithm.String() can take
// on /stats' planner section ("auto" is what a Sharded echoes).
var planAlgorithms = []string{"hub-label", "eager-M", "eager", "lazy", "lazy-EP", "expansion", "auto"}

// metricValue is one measured metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultMetrics renders vals as the result line's metrics object: every
// metric of defs, by name, 0 when the workload produced none.
func resultMetrics(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

// describe renders BENCHMARK.json from the tables above.
func describe() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	return append(out, '\n'), err
}

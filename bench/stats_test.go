package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{n: 100, p: 50, want: 50, ok: true},
		{n: 100, p: 95, want: 95, ok: false}, // 5 beyond
		{n: 200, p: 95, want: 190, ok: true}, // exactly 10 beyond
		{n: 199, p: 95, want: 190, ok: false},
		{n: 1000, p: 99, want: 990, ok: true},
		{n: 999, p: 99, want: 990, ok: false},
		{n: 20, p: 50, want: 10, ok: true},
		{n: 19, p: 50, want: 10, ok: false},
		{n: 3, p: 100, want: 3, ok: false},
		{n: 1, p: 50, want: 1, ok: false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of nothing must not be reportable")
	}
}

func TestQuietQuartile(t *testing.T) {
	in := []float64{9, 3, 12, 1, 6, 4, 8, 2, 11, 5, 10, 7} // 1..12
	if got := quietQuartile(in, lower); got != 3 {
		t.Errorf("lower-is-better quiet quartile of 1..12 = %v, want 3", got)
	}
	if got := quietQuartile(in, higher); got != 10 {
		t.Errorf("higher-is-better quiet quartile of 1..12 = %v, want 10", got)
	}
	if in[0] != 9 {
		t.Error("quietQuartile reordered its input")
	}
	// Six rounds: the second best. One round: that round.
	if got := quietQuartile(seq(6), lower); got != 2 {
		t.Errorf("quiet quartile of 1..6 = %v, want 2", got)
	}
	if got := quietQuartile(seq(6), higher); got != 5 {
		t.Errorf("higher quiet quartile of 1..6 = %v, want 5", got)
	}
	if lo, hi := quietQuartile([]float64{7}, lower), quietQuartile([]float64{7}, higher); lo != 7 || hi != 7 {
		t.Errorf("quiet quartile of one round = %v, %v; want 7, 7", lo, hi)
	}
	if got := quietQuartile(nil, lower); got != 0 {
		t.Errorf("quietQuartile(nil) = %v, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{5, 1, 4}
	if got := median(in); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if in[0] != 5 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
}

const statsBefore = `{"points":193,"queries_served":10,"query_errors":1,
 "pool":{"reads":100,"hits":900,"evictions":40,"tenants":[
   {"name":"graph","reads":90,"hits":810},{"name":"mat","reads":10,"hits":90}]},
 "planner":{"decisions":{"eager":5},"fallbacks":0},
 "mat":{"repair_state":"clean"},
 "shards":{"queries":2,"fan_outs":8,"per_shard":[
   {"shard":0,"latency_ms":1.0},{"shard":1,"latency_ms":2.0}]}}`

const statsAfter = `{"points":193,"queries_served":110,"query_errors":1,
 "pool":{"reads":300,"hits":1700,"evictions":240,"tenants":[
   {"name":"mat","reads":20,"hits":180},{"name":"graph","reads":280,"hits":1520}]},
 "planner":{"decisions":{"eager":55,"lazy":50},"fallbacks":3},
 "mat":{"repair_state":"clean"},
 "shards":{"queries":12,"fan_outs":48,"per_shard":[
   {"shard":1,"latency_ms":5.0},{"shard":0,"latency_ms":2.0}]}}`

func TestStatsDiff(t *testing.T) {
	before, strs, err := parseStats([]byte(statsBefore))
	if err != nil {
		t.Fatal(err)
	}
	if strs["mat.repair_state"] != "clean" {
		t.Errorf("repair_state = %q", strs["mat.repair_state"])
	}
	after, _, err := parseStats([]byte(statsAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := before.diff(after)
	want := map[string]float64{
		"queries_served": 100,
		"query_errors":   0,
		"pool.reads":     200,
		"pool.hits":      800,
		// Rows are matched by name, not by position.
		"pool.tenants.graph.reads":      190,
		"pool.tenants.graph.hits":       710,
		"pool.tenants.mat.reads":        10,
		"planner.decisions.eager":       50,
		"planner.decisions.lazy":        50, // absent before: counts from zero
		"planner.fallbacks":             3,
		"shards.per_shard.0.latency_ms": 1,
		"shards.per_shard.1.latency_ms": 3,
	}
	for k, w := range want {
		if got, ok := d[k]; !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("diff[%q] = %v (present %v), want %v", k, got, ok, w)
		}
	}
	sum, largest := d.sumPrefix("shards.per_shard.", "latency_ms")
	if sum != 4 || largest != 3 {
		t.Errorf("sumPrefix = %v, %v; want 4, 3", sum, largest)
	}

	m := (&aggregate{w: &workloads[0], queries: 100, byClass: make([][]float64, len(workloads[0].classes))}).metrics(d)
	for k, w := range map[string]float64{
		"storage.pool_hit_rate":           0.8,
		"storage.pool_reads_per_op":       2,
		"storage.pool_evictions_per_op":   2,
		"storage.graph_hit_rate":          710.0 / 900,
		"plan.decisions_eager_share":      0.5,
		"plan.decisions_lazy_share":       0.5,
		"plan.fallback_share":             0.03,
		"sharded.fanout_per_op":           4,
		"sharded.shard_latency_us_per_op": 400,
		"sharded.slowest_shard_share":     0.75,
	} {
		if got := m[k]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got, w)
		}
	}
}

func TestParseProcStatCPU(t *testing.T) {
	// comm may contain spaces and parentheses; utime=250 stime=50 ticks.
	line := "4242 (rnn server) x) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 5 0 1000 0 0"
	got, err := parseProcStatCPU(line)
	if err != nil || got != 3 {
		t.Errorf("parseProcStatCPU = %v, %v; want 3s", got, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("malformed stat line accepted")
	}
}

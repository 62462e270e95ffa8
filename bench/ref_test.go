package main

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
)

func TestRefScale(t *testing.T) {
	c := refClass{nominal: refSample{p50: 2, p95: 4, qps: 100, cpu: 1}}
	// The machine ran at half speed around this round: latencies and CPU
	// doubled, throughput halved.
	before := refSample{p50: 3, p95: 8, qps: 60, cpu: 2.5}
	after := refSample{p50: 5, p95: 8, qps: 40, cpu: 1.5}
	got := c.scale(before, after)
	want := map[string]float64{"p50_ms": 0.5, "p95_ms": 0.5, "qps": 2, "cpu_ms_per_op": 0.5}
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-12 {
			t.Errorf("scale[%s] = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("scale has %d factors, want %d", len(got), len(want))
	}
}

func TestRefGraphExpand(t *testing.T) {
	g := newRefGraph()
	if n := len(g.off) - 1; n != refNodes {
		t.Fatalf("%d nodes, want %d", n, refNodes)
	}
	if deg := float64(len(g.to)) / refNodes; deg < 2.4 || deg > 2.8 {
		t.Errorf("%.2f out-edges per node, want about 2.6", deg)
	}
	if far := g.expand(17, 0); far != 0 {
		t.Errorf("settling nothing reached distance %v", far)
	}
	near, far := g.expand(17, 10), g.expand(17, 1000)
	if !(0 < near && near < far) {
		t.Errorf("the 10th node is at %v, the 1000th at %v", near, far)
	}
	if again := g.expand(17, 1000); again != far {
		t.Errorf("the same expansion gave %v, then %v", far, again)
	}
	// More than the graph holds: the expansion ends when the heap is empty.
	if all := g.expand(17, 2*refNodes); all < far {
		t.Errorf("the whole graph ends at %v, nearer than its 1000th node at %v", all, far)
	}
}

func TestRefServer(t *testing.T) {
	srv := httptest.NewServer(refHandler())
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()
	for _, class := range []*refClass{&refLight, &refHeavy} {
		for _, body := range refBodies(class)[:3] {
			s := c.post("/query", body)
			if !s.ok {
				t.Fatalf("%s %s: %s", class.name, body, s.fail)
			}
			var a refAnswer
			if err := json.Unmarshal(s.body, &a); err != nil || len(a.Points) != 3 || len(a.Sum) != 64 {
				t.Fatalf("%s %s: answer %s (%v)", class.name, body, s.body, err)
			}
			if a.Stats["nodes_expanded"] != int64(class.work) {
				t.Errorf("%s: settled %d, want %d", class.name, a.Stats["nodes_expanded"], class.work)
			}
		}
	}
	if s := c.post("/query", []byte(`{"node":-1}`)); s.ok {
		t.Error("a negative node was answered")
	}
	r := &reference{srv: &server{base: srv.URL}, conn: c, control: srv.Client()}
	a, err := r.cpuMicros()
	if err != nil || a <= 0 {
		t.Fatalf("/cpu: %v, %v", a, err)
	}
	small := refClass{requests: 50}
	r.class, r.bodies = &small, refBodies(&small)
	got, err := r.slice()
	if err != nil {
		t.Fatal(err)
	}
	if !(got.p50 > 0 && got.p95 >= got.p50 && got.qps > 0 && got.cpu >= 0) {
		t.Errorf("slice measured %+v", got)
	}
}

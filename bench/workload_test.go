package main

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"
)

var smokeDataset = sync.OnceValues(func() (*dataset, error) { return newDataset(smokeNodes) })

func sequence(t *testing.T, w *workload, seed int64, n int) []request {
	t.Helper()
	d, err := smokeDataset()
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := newGenerator(w, d, seed).block(n)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func bodies(reqs []request) []byte {
	var b bytes.Buffer
	for _, r := range reqs {
		b.WriteString(r.path)
		b.WriteByte(' ')
		b.Write(r.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := sequence(t, w, 7, 400), sequence(t, w, 7, 400)
		if !bytes.Equal(bodies(a), bodies(b)) {
			t.Errorf("%s: the same seed produced different request sequences", w.name)
		}
		c := sequence(t, w, 8, 400)
		if bytes.Equal(bodies(a), bodies(c)) {
			t.Errorf("%s: different seeds produced the same request sequence", w.name)
		}
		if w.panel {
			// A panel keeps its content and reorders it.
			sa, sc := sortedBodies(a), sortedBodies(c)
			if !slices.EqualFunc(sa, sc, bytes.Equal) {
				t.Errorf("%s: a panel workload's content changed with the seed", w.name)
			}
			// Every round of a panel sends the same requests, reordered.
			d, err := smokeDataset()
			if err != nil {
				t.Fatal(err)
			}
			g := newGenerator(w, d, 7)
			r1, err1 := g.block(300)
			r2, err2 := g.block(300)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if !slices.EqualFunc(sortedBodies(r1), sortedBodies(r2), bytes.Equal) {
				t.Errorf("%s: two rounds of a panel workload differ in content", w.name)
			}
			if bytes.Equal(bodies(r1), bodies(r2)) {
				t.Errorf("%s: two rounds of a panel workload came in the same order", w.name)
			}
		}
	}
}

func sortedBodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body
	}
	slices.SortFunc(out, bytes.Compare)
	return out
}

func TestGeneratorMixShares(t *testing.T) {
	const n = 1000
	for i := range workloads {
		w := &workloads[i]
		var total float64
		for _, c := range w.classes {
			total += c.share
		}
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("%s: class shares sum to %v", w.name, total)
		}
		counts := make([]int, len(w.classes))
		ks := make([]map[int]int, len(w.classes))
		for _, r := range sequence(t, w, 3, n) {
			counts[r.class]++
			if len(r.queries) != w.batch {
				t.Fatalf("%s: request with %d queries, want %d", w.name, len(r.queries), w.batch)
			}
			for _, q := range r.queries {
				c := w.classes[r.class]
				if q.Kind != c.kind || q.Algo != c.algo {
					t.Fatalf("%s: query %+v does not match class %s", w.name, q, c.name)
				}
				if ks[r.class] == nil {
					ks[r.class] = map[int]int{}
				}
				ks[r.class][q.K]++
				if (q.Kind == "continuous") != (len(q.Route) > 0) || (q.Kind == "continuous") == (q.Node != nil) {
					t.Fatalf("%s: malformed target in %+v", w.name, q)
				}
			}
		}
		for ci, c := range w.classes {
			if got := float64(counts[ci]) / n; math.Abs(got-c.share) > 0.01 {
				t.Errorf("%s: class %s has share %.3f, want %.2f within 0.01", w.name, c.name, got, c.share)
			}
			for _, k := range c.ks {
				if got, want := ks[ci][k], counts[ci]*w.batch/len(c.ks); got < want-1 || got > want+1 {
					t.Errorf("%s: class %s draws k=%d %d times, want %d", w.name, c.name, k, got, want)
				}
			}
		}
	}
}

func TestApportionIsExact(t *testing.T) {
	classes := []class{{share: 0.35}, {share: 0.20}, {share: 0.10}, {share: 0.15}, {share: 0.02}, {share: 0.10}, {share: 0.08}}
	for _, n := range []int{1, 7, 202, 1000} {
		got := apportion(classes, n)
		if len(got) != n {
			t.Fatalf("apportion(%d) filled %d slots", n, len(got))
		}
	}
	counts := make([]int, len(classes))
	for _, c := range apportion(classes, 200) {
		counts[c]++
	}
	if want := []int{70, 40, 20, 30, 4, 20, 16}; !slices.Equal(counts, want) {
		t.Errorf("apportion(200) = %v, want %v", counts, want)
	}
}

func TestServerFlags(t *testing.T) {
	w, err := findWorkload("expand_cold")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.serverFlags(), []string{"-maxk", "4", "-disk", "-buffer", "32"}; !slices.Equal(got, want) {
		t.Errorf("expand_cold flags = %v, want %v", got, want)
	}
	w, _ = findWorkload("shard_batch")
	if got, want := w.serverFlags(), []string{"-maxk", "0", "-hublabel", "4", "-shards", "4"}; !slices.Equal(got, want) {
		t.Errorf("shard_batch flags = %v, want %v", got, want)
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestOracleAgreesAcrossKinds(t *testing.T) {
	d, err := smokeDataset()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload("expand_cold")
	e, err := openEngine(w, d)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := e.close(); err != nil {
			t.Error(err)
		}
	}()
	// The in-process twin of the expand_cold server, driven through the
	// replay path, must agree with the oracle on every class.
	reqs := sequence(t, w, 5, 60)
	if _, _, err := e.replay(newTracer(), reqs, 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		q, err := toQuery(r.queries[0], e.ps, e.sites)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.db.Run(t.Context(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d.oracle(r.queries[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := memberIDs(res); !slices.Equal(got, want) {
			t.Errorf("%s: engine %v, oracle %v", describeQuery(r.queries[0]), got, want)
		}
	}
}

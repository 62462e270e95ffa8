package pq

import (
	"math"
	"math/bits"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// radixBases are the priorities a run may start from — negative, both
// zeros, integers, fractions and +Inf — and radixSteps what a push may add
// to the last pop: zero and integers for ties, fractions, +Inf.
var (
	radixBases = []float64{0, math.Copysign(0, -1), 1, 2, 3, -2.5, 0.25, 7, 1e-300, math.Inf(1)}
	radixSteps = []float64{0, 0, 1, 1, 2, 3, 0.5, 0.125, 1e-9, math.Inf(1)}
)

// checkRadixAgainstHeap drives a Radix and a Heap with the same monotone
// operations, two bytes each, and requires the same (value, priority) pop
// and peek sequences, and the same Len, PushCount and PopCount throughout.
// A push offered below the last pop of a non-empty run must panic and leave
// the queue as it was. A peek raises the run's floor to what it returns
// (Radix.Peek's contract), so later pushes start from there.
func checkRadixAgainstHeap(t *testing.T, ops []byte) {
	t.Helper()
	var q Radix[int]
	var h Heap[int]
	floor, popped := 0.0, false // the run's last pop, once there is one
	seq := 0
	for i := 0; i+1 < len(ops); i += 2 {
		arg := int(ops[i+1])
		switch ops[i] % 9 {
		case 0, 1, 2, 3: // monotone push
			if h.Len() == 0 {
				popped = false // a new run
			}
			p := radixBases[arg%len(radixBases)]
			if popped {
				p = floor + radixSteps[arg%len(radixSteps)]
			}
			q.Push(seq, p)
			h.Push(seq, p)
			seq++
		case 4, 5: // pop
			v, p, ok := q.Pop()
			wv, wp, wok := h.Pop()
			if v != wv || p != wp || ok != wok {
				t.Fatalf("op %d: Radix.Pop = (%d,%v,%v), Heap.Pop = (%d,%v,%v)", i/2, v, p, ok, wv, wp, wok)
			}
			if ok {
				floor, popped = p, true
			}
		case 6: // push below the last pop
			if !popped || h.Len() == 0 || math.IsInf(floor, -1) {
				continue
			}
			below := math.Nextafter(floor, math.Inf(-1)) - float64(arg%3)
			if !radixPanics(func() { q.Push(-1, below) }) {
				t.Fatalf("op %d: push of %v below the last pop %v did not panic", i/2, below, floor)
			}
		case 7:
			q.Reset()
			h.Reset()
			popped = false
		case 8: // peek
			v, p, ok := q.Peek()
			wv, wp, wok := h.Peek()
			if v != wv || p != wp || ok != wok {
				t.Fatalf("op %d: Radix.Peek = (%d,%v,%v), Heap.Peek = (%d,%v,%v)", i/2, v, p, ok, wv, wp, wok)
			}
			if ok {
				floor, popped = p, true
			}
		}
		if q.Len() != h.Len() {
			t.Fatalf("op %d: Radix.Len = %d, Heap.Len = %d", i/2, q.Len(), h.Len())
		}
		if q.PushCount != h.PushCount || q.PopCount != h.PopCount {
			t.Fatalf("op %d: Radix counters (%d,%d), Heap counters (%d,%d)", i/2, q.PushCount, q.PopCount, h.PushCount, h.PopCount)
		}
	}
	for h.Len() > 0 { // drain what is left
		v, p, _ := q.Pop()
		wv, wp, _ := h.Pop()
		if v != wv || p != wp {
			t.Fatalf("drain: Radix.Pop = (%d,%v), Heap.Pop = (%d,%v)", v, p, wv, wp)
		}
	}
	if _, _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatalf("Radix not empty after the drain: Len = %d", q.Len())
	}
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Radix.Peek reported an item after the drain")
	}
	if q.PushCount != h.PushCount || q.PopCount != h.PopCount {
		t.Fatalf("drain: Radix counters (%d,%d), Heap counters (%d,%d)", q.PushCount, q.PopCount, h.PushCount, h.PopCount)
	}
}

func radixPanics(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

// TestRadixMatchesHeap is the model check on random operation sequences:
// pushes outnumber pops, so runs grow deep before they drain.
func TestRadixMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for range 300 {
		ops := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(ops)
		checkRadixAgainstHeap(t, ops)
	}
}

func TestRadixFIFOTies(t *testing.T) {
	var q Radix[int]
	for i := range 10 {
		q.Push(i, float64(3-i%2)) // 2 and 3, alternating
	}
	q.Push(10, 0)
	q.Push(11, math.Copysign(0, -1))
	q.Push(12, math.Inf(1))
	for _, want := range []int{10, 11, 1, 3} {
		if v, _, _ := q.Pop(); v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
	}
	q.Push(13, 2) // equal to the last pop: behind the queued 2s
	q.Push(14, math.Inf(1))
	for _, want := range []int{5, 7, 9, 13, 0, 2, 4, 6, 8, 12, 14} {
		if v, _, ok := q.Pop(); !ok || v != want {
			t.Fatalf("pop = %d (ok=%v), want %d", v, ok, want)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after the drain", q.Len())
	}
}

// TestRadixRuns: a push below the last pop panics while the queue holds
// anything, and is a new run once it has drained or been Reset.
func TestRadixRuns(t *testing.T) {
	var q Radix[int]
	q.Push(0, 5)
	q.Push(1, 6)
	q.Pop()
	if !radixPanics(func() { q.Push(2, 4) }) {
		t.Fatal("push below the last pop accepted while non-empty")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d after a refused push, want 1", q.Len())
	}
	q.Pop()
	q.Push(3, 1) // drained: a new run
	q.Push(4, 0.5)
	if v, p, _ := q.Pop(); v != 4 || p != 0.5 {
		t.Fatalf("new run pops (%d,%v), want (4,0.5)", v, p)
	}
	q.Reset()
	q.Push(5, -1)
	if v, _, ok := q.Pop(); !ok || v != 5 || q.Len() != 0 {
		t.Fatal("queue unusable after Reset")
	}
	// A Peek that refills raises the floor to the priority it returns.
	q.Push(6, 1)
	q.Push(7, 3)
	q.Pop()
	if v, p, ok := q.Peek(); !ok || v != 7 || p != 3 {
		t.Fatalf("Peek = (%d,%v,%v), want (7,3,true)", v, p, ok)
	}
	if !radixPanics(func() { q.Push(8, 2) }) {
		t.Fatal("push below a peeked minimum accepted")
	}
	if v, _, ok := q.Pop(); !ok || v != 7 || q.Len() != 0 {
		t.Fatal("Pop after Peek did not return the peeked item")
	}

	// Rows that reach a lone entry in the lowest bucket, which Pop takes in
	// place: 3 sits alone in bucket 63 once 1 has gone. Each row then
	// drains, starts a new run whose 7 and +Inf share bucket 63 again, and
	// pops them through a refill — which finds the minimum wrong if the
	// in-place pop left bucket 63's smallest key or full bit behind.
	for _, row := range []struct{ name, script string }{
		{"right after a peek", "1 3 peek pop lone pop 1 7 inf pop pop pop"},
		{"after ties in bucket 0", "1 1 1 3 pop pop pop lone pop 1 7 inf pop pop pop"},
		{"after a mid-run reset", "0 1e-300 1 2 pop spread reset 1 3 pop lone pop 1 7 inf pop pop pop"},
	} {
		t.Run(row.name, func(t *testing.T) { runRadixScript(t, row.script) })
	}
}

// runRadixScript drives a Radix and a Heap through a script of
// space-separated steps and requires the same pops and peeks: a number
// pushes that priority, "pop", "peek" and "reset" do what they say, "lone"
// asserts that the next pop finds buckets[0] empty and one entry in the
// lowest bucket, and "spread" that entries sit in at least three buckets.
// Whatever is left is drained and compared at the end.
func runRadixScript(t *testing.T, script string) {
	t.Helper()
	var q Radix[int]
	var h Heap[int]
	for i, step := range strings.Fields(script) {
		switch step {
		case "pop", "peek":
			pop, wpop := q.Pop, h.Pop
			if step == "peek" {
				pop, wpop = q.Peek, h.Peek
			}
			v, p, ok := pop()
			wv, wp, wok := wpop()
			if v != wv || p != wp || ok != wok {
				t.Fatalf("step %d %s: Radix (%d,%v,%v), Heap (%d,%v,%v)", i, step, v, p, ok, wv, wp, wok)
			}
		case "reset":
			q.Reset()
			h.Reset()
		case "lone":
			if len(q.buckets[0]) != 0 || len(q.buckets[bits.TrailingZeros64(q.full)+1]) != 1 {
				t.Fatalf("step %d: the lowest bucket does not hold a lone entry", i)
			}
		case "spread":
			if n := bits.OnesCount64(q.full); n < 3 {
				t.Fatalf("step %d: entries in %d buckets, want at least 3", i, n)
			}
		default:
			p, err := strconv.ParseFloat(step, 64)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			q.Push(i, p)
			h.Push(i, p)
		}
	}
	for h.Len() > 0 {
		v, p, _ := q.Pop()
		wv, wp, _ := h.Pop()
		if v != wv || p != wp {
			t.Fatalf("drain: Radix.Pop = (%d,%v), Heap.Pop = (%d,%v)", v, p, wv, wp)
		}
	}
}

// FuzzRadixModel is checkRadixAgainstHeap on fuzzed operation sequences.
func FuzzRadixModel(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 4, 0, 0, 2, 6, 1, 4, 0, 4, 0})
	f.Add([]byte{0, 9, 1, 0, 4, 0, 0, 9, 0, 0, 4, 0, 4, 0, 0, 5, 7, 0, 0, 1})
	f.Add([]byte{0, 2, 0, 6, 4, 0, 1, 0, 1, 1, 1, 0, 4, 0, 4, 0, 4, 0, 6, 2})
	f.Add([]byte{0, 3, 0, 9, 0, 4, 8, 0, 0, 0, 6, 1, 4, 0, 8, 0, 0, 2, 8, 0, 4, 0, 4, 0, 8, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkRadixAgainstHeap(t, ops)
	})
}

// BenchmarkRadixProbe prices the queue the way a range-NN probe uses it:
// Dijkstra runs of 200 pops from a fresh Reset, over a fixed 64×64 grid
// with seeded random weights, 64 sources an op. The value is 8 bytes, the
// size of the walker's entry, so a slot is the walker's 16. It reports
// ns/pop, Reset included, beside pushes/pop.
func BenchmarkRadixProbe(b *testing.B) {
	const side, pops = 64, 200
	type probeEntry struct{ node, from int32 }
	rng := rand.New(rand.NewSource(51))
	right := make([]float64, side*side) // weight of the arc to node+1
	down := make([]float64, side*side)  // weight of the arc to node+side
	for i := range right {
		right[i], down[i] = 1+rng.Float64(), 1+rng.Float64()
	}
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32(rng.Intn(side * side))
	}
	dist := make([]float64, side*side)
	seen := make([]int, side*side) // run stamp of the last label
	closed := make([]int, side*side)
	var q Radix[probeEntry]
	run := 0
	relax := func(from, to int32, d float64) {
		if closed[to] == run || (seen[to] == run && dist[to] <= d) {
			return
		}
		seen[to], dist[to] = run, d
		q.Push(probeEntry{to, from}, d)
	}
	total := 0
	b.ResetTimer()
	for range b.N {
		for _, src := range sources {
			run++
			q.Reset()
			relax(-1, src, 0)
			for range pops {
				e, d, ok := q.Pop()
				if !ok {
					break
				}
				total++
				n := e.node
				if closed[n] == run {
					continue
				}
				closed[n] = run
				x, y := n%side, n/side
				if x+1 < side {
					relax(n, n+1, d+right[n])
				}
				if x > 0 {
					relax(n, n-1, d+right[n-1])
				}
				if y+1 < side {
					relax(n, n+side, d+down[n])
				}
				if y > 0 {
					relax(n, n-side, d+down[n-side])
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(total), "ns/pop")
	b.ReportMetric(float64(q.PushCount)/float64(q.PopCount), "pushes/pop")
}

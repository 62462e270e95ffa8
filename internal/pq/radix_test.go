package pq

import (
	"math"
	"math/rand"
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

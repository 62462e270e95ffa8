package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func drain(t *testing.T, h *Heap[int]) []float64 {
	t.Helper()
	var out []float64
	prev := -1.0
	first := true
	for h.Len() > 0 {
		_, prio, ok := h.Pop()
		if !ok {
			t.Fatalf("Pop reported empty with Len=%d", h.Len())
		}
		if !first && prio < prev {
			t.Fatalf("heap order violated: %v after %v", prio, prev)
		}
		prev, first = prio, false
		out = append(out, prio)
	}
	return out
}

func TestEmptyHeap(t *testing.T) {
	var h Heap[int]
	if _, _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty heap reported ok")
	}
	if _, _, ok := h.Peek(); ok {
		t.Fatal("Peek on empty heap reported ok")
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d, want 0", h.Len())
	}
}

func TestPushPopOrder(t *testing.T) {
	var h Heap[int]
	prios := []float64{5, 1, 4, 1.5, 9, 2.5, 0, 7}
	for i, p := range prios {
		h.Push(i, p)
	}
	if v, p, ok := h.Peek(); !ok || v != 6 || p != 0 {
		t.Fatalf("Peek = (%d,%v,%v), want (6,0,true)", v, p, ok)
	}
	got := drain(t, &h)
	want := append([]float64(nil), prios...)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("drained %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 10; i++ {
		h.Push(i, 3.0)
	}
	for _, want := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		v, _, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("tie pop = %d (ok=%v), want %d: FIFO order", v, ok, want)
		}
	}
}

func TestReset(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 5; i++ {
		h.Push(i, float64(i))
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", h.Len())
	}
	for i := 0; i < 5; i++ {
		h.Push(100+i, float64(i))
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d after 5 pushes past a Reset", h.Len())
	}
	if v, _, ok := h.Pop(); !ok || v != 100 {
		t.Fatal("heap unusable after Reset")
	}
}

func TestCounters(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 8; i++ {
		h.Push(i, float64(i))
	}
	for h.Len() > 0 {
		h.Pop()
	}
	h.Reset()
	if h.PushCount != 8 || h.PopCount != 8 {
		t.Fatalf("counters = (%d,%d), want (8,8)", h.PushCount, h.PopCount)
	}
}

// TestQuickRandomOps drives the heap with random interleaved operations and
// checks it against a reference implementation.
func TestQuickRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Heap[int]
		type ref struct {
			prio float64
			seq  int
		}
		live := map[int]ref{}
		seq := 0
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(3); {
			case r <= 1: // push
				p := float64(rng.Intn(50))
				h.Push(seq, p)
				live[seq] = ref{p, seq}
				seq++
			case r == 2 && len(live) > 0: // pop
				v, prio, ok := h.Pop()
				if !ok {
					return false
				}
				// The popped item must be minimal among live items.
				for _, rf := range live {
					if rf.prio < prio || (rf.prio == prio && rf.seq < v) {
						return false
					}
				}
				delete(live, v)
			}
			if h.Len() != len(live) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathAllocs pins the point of storing entries by value: once the
// backing arrays have grown, pushes and pops are free of allocation.
func TestHotPathAllocs(t *testing.T) {
	var h Heap[int32]
	round := func() {
		h.Reset()
		for i := 0; i < 512; i++ {
			h.Push(int32(i), float64((i*7919)%97))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
	round()
	if n := testing.AllocsPerRun(20, round); n != 0 {
		t.Fatalf("warmed heap allocated %v times per round, want 0", n)
	}
}

// FuzzHeapModel is a differential test against a slice kept sorted by
// (priority, insertion number). Each input byte pair is one operation; the
// few distinct priorities make ties the common case.
func FuzzHeapModel(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 1, 0, 2, 0, 2, 0, 1, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 1, 1, 0, 3, 0, 0, 5, 2, 0, 2, 2, 1, 0})
	f.Add([]byte{0, 1, 0, 0, 3, 0, 2, 0, 2, 1, 0, 7, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ent struct {
			prio float64
			seq  int
		}
		var h Heap[int]
		var model []ent // sorted
		seq := 0
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 8 {
			case 0, 1, 2: // push
				e := ent{prio: float64(arg % 6), seq: seq}
				h.Push(seq, e.prio)
				seq++
				at := sort.Search(len(model), func(j int) bool { return model[j].prio > e.prio })
				model = append(model, ent{})
				copy(model[at+1:], model[at:])
				model[at] = e
			case 3, 4, 5, 6: // pop
				v, prio, ok := h.Pop()
				if ok != (len(model) > 0) {
					t.Fatalf("Pop ok=%v with %d modelled entries", ok, len(model))
				}
				if ok {
					if want := model[0]; v != want.seq || prio != want.prio {
						t.Fatalf("Pop = (%d,%v), model says (%d,%v)", v, prio, want.seq, want.prio)
					}
					model = model[1:]
				}
			case 7: // reset
				h.Reset()
				model = model[:0]
			}
			if h.Len() != len(model) {
				t.Fatalf("Len = %d, model has %d", h.Len(), len(model))
			}
			if v, prio, ok := h.Peek(); ok != (len(model) > 0) || ok && (v != model[0].seq || prio != model[0].prio) {
				t.Fatalf("Peek = (%d,%v,%v) disagrees with the model", v, prio, ok)
			}
		}
	})
}

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
	if h.Remove(0) {
		t.Fatal("Remove of the zero Handle succeeded")
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
	// A removal in the middle must not disturb the order of the rest.
	hd := h.Push(10, 3.0)
	h.Push(11, 3.0)
	if !h.Remove(hd) {
		t.Fatal("Remove of a queued tie failed")
	}
	for _, want := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11} {
		v, _, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("tie pop = %d (ok=%v), want %d: FIFO order", v, ok, want)
		}
	}
}

func TestRemove(t *testing.T) {
	var h Heap[int]
	var handles []Handle
	for i := 0; i < 20; i++ {
		handles = append(handles, h.Push(i, float64(i)))
	}
	// Remove the evens.
	for i := 0; i < 20; i += 2 {
		if !h.Remove(handles[i]) {
			t.Fatalf("Remove(%d) failed", i)
		}
	}
	// Double remove must be a reported no-op.
	if h.Remove(handles[0]) {
		t.Fatal("second Remove succeeded")
	}
	if h.Len() != 10 {
		t.Fatalf("Len = %d after removing 10 of 20", h.Len())
	}
	for i := 1; i < 20; i += 2 {
		v, _, ok := h.Pop()
		if !ok || v != i {
			t.Fatalf("pop = %d (ok=%v), want %d", v, ok, i)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", h.Len())
	}
}

func TestRemoveAfterPopIsNoop(t *testing.T) {
	var h Heap[int]
	it := h.Push(1, 1)
	h.Push(2, 2)
	if v, _, _ := h.Pop(); v != 1 {
		t.Fatal("expected to pop item 1")
	}
	if h.Remove(it) {
		t.Fatal("Remove succeeded on popped item")
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
}

func TestReset(t *testing.T) {
	var h Heap[int]
	var hs []Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, h.Push(i, float64(i)))
	}
	h.Reset()
	if h.Len() != 0 {
		t.Fatalf("Len = %d after Reset, want 0", h.Len())
	}
	// Entries pushed after the Reset reuse the left bitset; stale
	// handles must not reach them.
	for i := 0; i < 5; i++ {
		h.Push(100+i, float64(i))
	}
	for _, it := range hs {
		if h.Remove(it) {
			t.Fatal("Remove of a pre-Reset handle succeeded")
		}
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d, stale handles removed live entries", h.Len())
	}
	if v, _, ok := h.Pop(); !ok || v != 100 {
		t.Fatal("heap unusable after Reset")
	}
}

// TestRemovedEntriesSurfaceUncounted: a removed entry is a tombstone that
// no caller can see — not through Len, Peek or Pop, and not in PopCount —
// including a run of them surfacing at the root together, and the last
// live entry leaving with tombstones behind it.
func TestRemovedEntriesSurfaceUncounted(t *testing.T) {
	var h Heap[int]
	var handles []Handle
	for i := 0; i < 8; i++ {
		handles = append(handles, h.Push(i, float64(i)))
	}
	for _, i := range []int{1, 2, 3, 7} { // not the root: they stay queued
		if !h.Remove(handles[i]) {
			t.Fatalf("Remove(%d) failed", i)
		}
	}
	if v, _, ok := h.Peek(); !ok || v != 0 || h.Len() != 4 {
		t.Fatalf("after removals: Peek = %d (ok=%v), Len = %d, want 0 and 4", v, ok, h.Len())
	}
	for _, want := range []int{0, 4, 5, 6} { // popping 0 surfaces 1, 2 and 3 at once
		if v, _, ok := h.Peek(); !ok || v != want {
			t.Fatalf("Peek = %d (ok=%v), want %d", v, ok, want)
		}
		if v, _, ok := h.Pop(); !ok || v != want {
			t.Fatalf("Pop = %d (ok=%v), want %d", v, ok, want)
		}
	}
	if _, _, ok := h.Pop(); ok || h.Len() != 0 {
		t.Fatalf("heap not empty after its live entries left: Len = %d", h.Len())
	}
	if h.PushCount != 8 || h.PopCount != 4 {
		t.Fatalf("counters = (%d,%d), want (8,4)", h.PushCount, h.PopCount)
	}
	if h.Remove(handles[7]) || h.Remove(handles[0]) {
		t.Fatal("Remove succeeded on an entry that had left the heap")
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
		live := map[Handle]ref{}
		seq := 0
		for op := 0; op < 300; op++ {
			switch r := rng.Intn(4); {
			case r <= 1: // push
				p := float64(rng.Intn(50))
				it := h.Push(seq, p)
				live[it] = ref{p, seq}
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
				for it, rf := range live {
					if rf.seq == v {
						delete(live, it)
						break
					}
				}
			case r == 3 && len(live) > 0: // remove a random live item
				for it := range live {
					if !h.Remove(it) {
						return false
					}
					delete(live, it)
					break
				}
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
// backing arrays have grown, pushes, pops and removals are free of
// allocation.
func TestHotPathAllocs(t *testing.T) {
	var h Heap[int32]
	round := func() {
		h.Reset()
		var mid Handle
		for i := 0; i < 512; i++ {
			hd := h.Push(int32(i), float64((i*7919)%97))
			if i == 256 {
				mid = hd
			}
		}
		h.Remove(mid)
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
// few distinct priorities make ties the common case, and Remove is offered
// every handle ever issued, so popped, removed and pre-Reset ones included.
func FuzzHeapModel(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 1, 0, 2, 0, 2, 0, 1, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 2, 1, 1, 0, 3, 0, 0, 5, 2, 0, 2, 2, 1, 0})
	f.Add([]byte{0, 1, 0, 0, 3, 0, 2, 0, 2, 1, 0, 7, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ent struct {
			prio float64
			seq  int
			hd   Handle
		}
		var h Heap[int]
		var model []ent // sorted
		var issued []Handle
		seq := 0
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 8 {
			case 0, 1, 2: // push
				e := ent{prio: float64(arg % 6), seq: seq}
				e.hd = h.Push(seq, e.prio)
				if e.hd == 0 {
					t.Fatal("Push returned the zero Handle")
				}
				seq++
				issued = append(issued, e.hd)
				at := sort.Search(len(model), func(j int) bool { return model[j].prio > e.prio })
				model = append(model, ent{})
				copy(model[at+1:], model[at:])
				model[at] = e
			case 3, 4: // pop
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
			case 5, 6: // remove any handle ever issued, or the zero one
				var hd Handle
				if len(issued) > 0 && arg > 0 {
					hd = issued[arg%len(issued)]
				}
				at := -1
				for j, e := range model {
					if e.hd == hd {
						at = j
					}
				}
				if got := h.Remove(hd); got != (at >= 0) {
					t.Fatalf("Remove(%d) = %v, model live=%v", hd, got, at >= 0)
				}
				if at >= 0 {
					model = append(model[:at], model[at+1:]...)
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

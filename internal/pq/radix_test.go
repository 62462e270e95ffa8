package pq

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// radixBases are the keys a run may start from — 0, small counts, both
// sides of 2^53 (where float64 stops holding every integer), 2^63 and the
// top of the range — and radixSteps what a push may add to the last pop
// (saturating at MaxUint64): zero and small counts for ties, large jumps.
var (
	radixBases = []uint64{0, 1, 2, 3, 7, 1 << 53, 1<<53 + 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64}
	radixSteps = []uint64{0, 0, 1, 1, 2, 3, 1 << 20, 1 << 53, 1 << 63, math.MaxUint64}
)

// radixModel is the reference queue: entries kept sorted by (key,
// insertion number), with the counters a Radix keeps.
type radixModel struct {
	ents                []radixModelEnt
	pushCount, popCount uint64
}

type radixModelEnt struct {
	key uint64
	v   int
}

func (m *radixModel) push(v int, key uint64) {
	at := sort.Search(len(m.ents), func(j int) bool { return m.ents[j].key > key })
	m.ents = slices.Insert(m.ents, at, radixModelEnt{key, v})
	m.pushCount++
}

func (m *radixModel) peek() (int, uint64, bool) {
	if len(m.ents) == 0 {
		return 0, 0, false
	}
	return m.ents[0].v, m.ents[0].key, true
}

func (m *radixModel) pop() (int, uint64, bool) {
	v, key, ok := m.peek()
	if ok {
		m.ents = m.ents[1:]
		m.popCount++
	}
	return v, key, ok
}

// checkRadixAgainstModel drives a Radix and the model with the same
// monotone operations, two bytes each, and requires the same (value, key)
// pop and peek sequences, and the same Len, PushCount and PopCount
// throughout. A push offered below the last pop of a non-empty run must
// panic and leave the queue as it was. A peek raises the run's floor to what
// it returns (Radix.Peek's contract), so later pushes start from there.
func checkRadixAgainstModel(t *testing.T, ops []byte) {
	t.Helper()
	var q Radix[int]
	var m radixModel
	var floor uint64
	popped := false // the run has a last pop, floor
	seq := 0
	for i := 0; i+1 < len(ops); i += 2 {
		arg := int(ops[i+1])
		switch ops[i] % 9 {
		case 0, 1, 2, 3: // monotone push
			if len(m.ents) == 0 {
				popped = false // a new run
			}
			k := radixBases[arg%len(radixBases)]
			if popped {
				k = floor + min(radixSteps[arg%len(radixSteps)], math.MaxUint64-floor)
			}
			q.Push(seq, k)
			m.push(seq, k)
			seq++
		case 4, 5: // pop
			v, k, ok := q.Pop()
			wv, wk, wok := m.pop()
			if v != wv || k != wk || ok != wok {
				t.Fatalf("op %d: Radix.Pop = (%d,%d,%v), model (%d,%d,%v)", i/2, v, k, ok, wv, wk, wok)
			}
			if ok {
				floor, popped = k, true
			}
		case 6: // push below the last pop
			below := uint64(1 + arg%3)
			if !popped || len(m.ents) == 0 || floor < below {
				continue
			}
			if !radixPanics(func() { q.Push(-1, floor-below) }) {
				t.Fatalf("op %d: push of %d below the last pop %d did not panic", i/2, floor-below, floor)
			}
		case 7:
			q.Reset()
			m.ents = m.ents[:0]
			popped = false
		case 8: // peek
			v, k, ok := q.Peek()
			wv, wk, wok := m.peek()
			if v != wv || k != wk || ok != wok {
				t.Fatalf("op %d: Radix.Peek = (%d,%d,%v), model (%d,%d,%v)", i/2, v, k, ok, wv, wk, wok)
			}
			if ok {
				floor, popped = k, true
			}
		}
		if q.Len() != len(m.ents) {
			t.Fatalf("op %d: Radix.Len = %d, model holds %d", i/2, q.Len(), len(m.ents))
		}
		if q.PushCount != m.pushCount || q.PopCount != m.popCount {
			t.Fatalf("op %d: Radix counters (%d,%d), model (%d,%d)", i/2, q.PushCount, q.PopCount, m.pushCount, m.popCount)
		}
	}
	for len(m.ents) > 0 { // drain what is left
		v, k, _ := q.Pop()
		wv, wk, _ := m.pop()
		if v != wv || k != wk {
			t.Fatalf("drain: Radix.Pop = (%d,%d), model (%d,%d)", v, k, wv, wk)
		}
	}
	if _, _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatalf("Radix not empty after the drain: Len = %d", q.Len())
	}
	if _, _, ok := q.Peek(); ok {
		t.Fatal("Radix.Peek reported an item after the drain")
	}
	if q.PushCount != m.pushCount || q.PopCount != m.popCount {
		t.Fatalf("drain: Radix counters (%d,%d), model (%d,%d)", q.PushCount, q.PopCount, m.pushCount, m.popCount)
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
		checkRadixAgainstModel(t, ops)
	}
}

func TestRadixFIFOTies(t *testing.T) {
	var q Radix[int]
	for i := range 10 {
		q.Push(i, uint64(3-i%2)) // 2 and 3, alternating
	}
	q.Push(10, 0)
	q.Push(11, 0)
	q.Push(12, math.MaxUint64)
	for _, want := range []int{10, 11, 1, 3} {
		if v, _, _ := q.Pop(); v != want {
			t.Fatalf("pop = %d, want %d", v, want)
		}
	}
	q.Push(13, 2) // equal to the last pop: behind the queued 2s
	q.Push(14, math.MaxUint64)
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
	q.Push(3, 2) // drained: a new run
	q.Push(4, 1)
	if v, k, _ := q.Pop(); v != 4 || k != 1 {
		t.Fatalf("new run pops (%d,%d), want (4,1)", v, k)
	}
	q.Reset()
	q.Push(5, 0)
	if v, _, ok := q.Pop(); !ok || v != 5 || q.Len() != 0 {
		t.Fatal("queue unusable after Reset")
	}
	// A Peek that refills raises the floor to the key it returns.
	q.Push(6, 1)
	q.Push(7, 3)
	q.Pop()
	if v, k, ok := q.Peek(); !ok || v != 7 || k != 3 {
		t.Fatalf("Peek = (%d,%d,%v), want (7,3,true)", v, k, ok)
	}
	if !radixPanics(func() { q.Push(8, 2) }) {
		t.Fatal("push below a peeked minimum accepted")
	}
	if v, _, ok := q.Pop(); !ok || v != 7 || q.Len() != 0 {
		t.Fatal("Pop after Peek did not return the peeked item")
	}

	// Rows that reach a lone entry in the lowest bucket, which Pop takes in
	// place: 6 sits alone in bucket 3 once 1 has gone (6 ^ 1 is 7). Each row
	// then drains and starts a new run whose two 7s share bucket 3 again,
	// behind a 1 whose pop leaves them there, and pops them through a
	// refill — which finds the minimum wrong if the in-place pop left bucket
	// 3's smallest key (6) or full bit behind.
	for _, row := range []struct{ name, script string }{
		{"right after a peek", "1 6 peek pop lone pop 1 7 7 max pop pop pop pop"},
		{"after ties in bucket 0", "1 1 1 6 pop pop pop lone pop 1 7 7 max pop pop pop pop"},
		{"after a mid-run reset", "0 1 2 9007199254740993 pop spread reset 1 6 pop lone pop 1 7 7 max pop pop pop pop"},
	} {
		t.Run(row.name, func(t *testing.T) { runRadixScript(t, row.script) })
	}
}

// runRadixScript drives a Radix and the model through a script of
// space-separated steps and requires the same pops and peeks: a number
// pushes that key ("max" is MaxUint64), "pop", "peek" and "reset" do what
// they say, "lone"
// asserts that the next pop finds buckets[0] empty and one entry in the
// lowest bucket, and "spread" that entries sit in at least three buckets.
// Whatever is left is drained and compared at the end.
func runRadixScript(t *testing.T, script string) {
	t.Helper()
	var q Radix[int]
	var m radixModel
	for i, step := range strings.Fields(script) {
		switch step {
		case "pop", "peek":
			pop, wpop := q.Pop, m.pop
			if step == "peek" {
				pop, wpop = q.Peek, m.peek
			}
			v, k, ok := pop()
			wv, wk, wok := wpop()
			if v != wv || k != wk || ok != wok {
				t.Fatalf("step %d %s: Radix (%d,%d,%v), model (%d,%d,%v)", i, step, v, k, ok, wv, wk, wok)
			}
		case "reset":
			q.Reset()
			m.ents = m.ents[:0]
		case "lone":
			if len(q.buckets[0]) != 0 || len(q.buckets[bits.TrailingZeros64(q.full)+1]) != 1 {
				t.Fatalf("step %d: the lowest bucket does not hold a lone entry", i)
			}
		case "spread":
			if n := bits.OnesCount64(q.full); n < 3 {
				t.Fatalf("step %d: entries in %d buckets, want at least 3", i, n)
			}
		default:
			k, err := strconv.ParseUint(step, 10, 64)
			if step == "max" {
				k, err = math.MaxUint64, nil
			}
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			q.Push(i, k)
			m.push(i, k)
		}
	}
	for len(m.ents) > 0 {
		v, k, _ := q.Pop()
		wv, wk, _ := m.pop()
		if v != wv || k != wk {
			t.Fatalf("drain: Radix.Pop = (%d,%d), model (%d,%d)", v, k, wv, wk)
		}
	}
}

// FuzzRadixModel is checkRadixAgainstModel on fuzzed operation sequences.
// The seeds start runs at 0, 2^53, 2^63 and MaxUint64 (radixBases 0, 5, 7
// and 9).
func FuzzRadixModel(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 0, 1, 4, 0, 0, 2, 6, 1, 4, 0, 4, 0})
	f.Add([]byte{0, 9, 1, 0, 4, 0, 0, 9, 0, 0, 4, 0, 4, 0, 0, 5, 7, 0, 0, 1})
	f.Add([]byte{0, 2, 0, 6, 4, 0, 1, 0, 1, 1, 1, 0, 4, 0, 4, 0, 4, 0, 6, 2})
	f.Add([]byte{0, 3, 0, 9, 0, 4, 8, 0, 0, 0, 6, 1, 4, 0, 8, 0, 0, 2, 8, 0, 4, 0, 4, 0, 8, 0})
	f.Add([]byte{0, 0, 0, 5, 0, 7, 0, 9, 4, 0, 0, 7, 0, 8, 4, 0, 8, 0, 4, 0, 4, 0, 6, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkRadixAgainstModel(t, ops)
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
	right := make([]uint64, side*side) // weight of the arc to node+1
	down := make([]uint64, side*side)  // weight of the arc to node+side
	for i := range right {
		right[i], down[i] = 1<<40+uint64(rng.Int63n(1<<40)), 1<<40+uint64(rng.Int63n(1<<40))
	}
	sources := make([]int32, 64)
	for i := range sources {
		sources[i] = int32(rng.Intn(side * side))
	}
	dist := make([]uint64, side*side)
	seen := make([]int, side*side) // run stamp of the last label
	closed := make([]int, side*side)
	var q Radix[probeEntry]
	run := 0
	relax := func(from, to int32, d uint64) {
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

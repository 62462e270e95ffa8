// Package pq implements the priority queues of the library's network
// expansions. A monotone radix queue (Radix) over uint64 keys — distances
// as counts of the graph's quantum — serves every expansion whose pushes
// never go below its last pop: every query walk of internal/core (main
// walks, range-NN, verification, KNN, Distance and the maintenance walks of
// the K-NN lists) and the offline Dijkstra sweeps — the all-NN build of the
// K-NN lists and the hub labeling's. A slot is the value plus an 8-byte key
// (16 bytes for the walker's 8-byte entry), and a pop that finds the lowest
// bucket holding one entry takes it where it lies (half the pops of
// BenchmarkRadixProbe's grid walks). A binary min-heap (Heap) over float64
// priorities serves the rest: lazy-EP's H', where a competitor found
// mid-walk seeds below the last pop of H', the second step of a K-NN list
// deletion, the hub-label cursor merge, and the hub elimination order. Its
// engine users push float64(count), which is exact below 2^53.
//
// Entries are stored by value and the heap holds no pointers of its own, so
// a warmed heap allocates nothing per operation and the garbage collector
// never scans or write-barriers it (unless T itself carries pointers).
//
// Ties are broken by insertion sequence (FIFO), which makes every traversal
// in the library deterministic for a fixed seed: pop order is the total
// order (priority, sequence), whatever the heap's layout.
package pq

type entry[T any] struct {
	value    T
	priority float64
	seq      uint64 // insertion number
}

// Heap is a binary min-heap ordered by (priority, insertion order). The
// zero value is an empty heap ready for use.
type Heap[T any] struct {
	items []entry[T]
	seq   uint64

	// PushCount and PopCount accumulate heap traffic for the experiment
	// harness; they are never reset by the heap itself.
	PushCount uint64
	PopCount  uint64
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Reset discards all queued items but keeps the backing arrays and the
// operation counters, so a Heap can be reused across queries without
// reallocating.
func (h *Heap[T]) Reset() {
	clear(h.items) // drop references a pointer-carrying T may hold
	h.items = h.items[:0]
}

// Push inserts value with the given priority.
func (h *Heap[T]) Push(value T, priority float64) {
	e := entry[T]{value: value, priority: priority, seq: h.seq}
	h.seq++
	h.PushCount++
	h.items = append(h.items, e)
	h.up(len(h.items)-1, e)
}

// Pop removes and returns the minimum item. ok is false when the heap is
// empty.
func (h *Heap[T]) Pop() (value T, priority float64, ok bool) {
	if len(h.items) == 0 {
		return value, 0, false
	}
	top := h.items[0]
	h.PopCount++
	last := len(h.items) - 1
	moved := h.items[last]
	clear(h.items[last:]) // as in Reset
	h.items = h.items[:last]
	if last > 0 {
		h.down(0, moved)
	}
	return top.value, top.priority, true
}

// Peek returns the minimum item without removing it.
func (h *Heap[T]) Peek() (value T, priority float64, ok bool) {
	if len(h.items) == 0 {
		return value, 0, false
	}
	return h.items[0].value, h.items[0].priority, true
}

func less[T any](a, b entry[T]) bool {
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// up sifts e towards the root from the hole at index i: ancestors that
// order after e move down into the hole, then e is written once.
func (h *Heap[T]) up(i int, e entry[T]) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(e, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = e
}

// down sifts e towards the leaves from the hole at index i.
func (h *Heap[T]) down(i int, e entry[T]) {
	n := len(h.items)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && less(h.items[right], h.items[child]) {
			child = right
		}
		if !less(h.items[child], e) {
			break
		}
		h.items[i] = h.items[child]
		i = child
	}
	h.items[i] = e
}

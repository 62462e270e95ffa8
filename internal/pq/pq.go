// Package pq implements the priority queues of the library's network
// expansions. A monotone radix queue (Radix) serves every expansion whose
// pushes never go below its last pop: every query walk of internal/core
// (main walks, range-NN, verification, KNN, Distance and the maintenance
// walks of the K-NN lists) and the offline Dijkstra sweeps — the all-NN
// build of the K-NN lists and the hub labeling's. A slot is the value plus
// an 8-byte key (16 bytes for the walker's 8-byte entry), and a pop that
// finds the lowest bucket holding one entry takes it where it lies (half
// the pops of BenchmarkRadixProbe's grid walks). A binary min-heap (Heap)
// serves the rest: lazy-EP's H', where a competitor found mid-walk seeds
// below the last pop of H', the second step of a K-NN list deletion, the
// hub-label cursor merge, and the hub elimination order, which re-keys an
// entry by removing and pushing it again.
//
// Push hands out a Handle that supports removal. Removal is lazy: Remove
// marks the entry in a bitset and it is dropped, uncounted, when it
// surfaces at the root, so the sifts of the expansions that never remove
// keep no position index up to date.
//
// Entries are stored by value and the heap holds no pointers of its own, so
// a warmed heap allocates nothing per operation and the garbage collector
// never scans or write-barriers it (unless T itself carries pointers).
//
// Ties are broken by insertion sequence (FIFO), which makes every traversal
// in the library deterministic for a fixed seed: pop order is the total
// order (priority, sequence), whatever the heap's layout.
package pq

// Handle names one pushed entry for Remove. It stays meaningful for the
// whole life of the heap: once its entry has been popped or removed — or
// the heap Reset — Remove on it is a harmless no-op reported through the
// return value. The zero Handle names no entry.
type Handle uint64

type entry[T any] struct {
	value    T
	priority float64
	seq      uint64 // insertion number; never reused, so also the entry's identity
}

// Heap is a binary min-heap ordered by (priority, insertion order). The
// zero value is an empty heap ready for use.
type Heap[T any] struct {
	items []entry[T]
	// left is a bitset over seq-base: a bit is set once the entry pushed
	// with that sequence number since the last Reset was popped or removed.
	// A removed entry stays in items as a tombstone until it surfaces at
	// the root, so no sift tracks positions; dead counts the tombstones.
	// The root is never one.
	left []uint64
	dead int
	base uint64
	seq  uint64

	// PushCount and PopCount accumulate heap traffic for the experiment
	// harness; they are never reset by the heap itself.
	PushCount uint64
	PopCount  uint64
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) - h.dead }

// Reset discards all queued items but keeps the backing arrays and the
// operation counters, so a Heap can be reused across queries without
// reallocating. Handles handed out before the Reset go stale.
func (h *Heap[T]) Reset() {
	clear(h.items) // drop references a pointer-carrying T may hold
	h.items = h.items[:0]
	h.left = h.left[:0]
	h.dead = 0
	h.base = h.seq
}

// Push inserts value with the given priority and returns its handle.
func (h *Heap[T]) Push(value T, priority float64) Handle {
	e := entry[T]{value: value, priority: priority, seq: h.seq}
	if (h.seq-h.base)>>6 == uint64(len(h.left)) {
		h.left = append(h.left, 0)
	}
	h.seq++
	h.PushCount++
	h.items = append(h.items, e)
	h.up(len(h.items)-1, e)
	return Handle(h.seq) // seq+1 of the entry: the zero Handle stays free
}

// Pop removes and returns the minimum item. ok is false when the heap is
// empty.
func (h *Heap[T]) Pop() (value T, priority float64, ok bool) {
	if len(h.items) == 0 {
		return value, 0, false
	}
	top := h.items[0]
	h.PopCount++
	h.mark(top.seq - h.base)
	h.dropRoot()
	return top.value, top.priority, true
}

// Peek returns the minimum item without removing it.
func (h *Heap[T]) Peek() (value T, priority float64, ok bool) {
	if len(h.items) == 0 {
		return value, 0, false
	}
	return h.items[0].value, h.items[0].priority, true
}

// Remove deletes the entry the handle names. It reports false when the
// entry had already left the heap (popped, removed, or Reset away).
func (h *Heap[T]) Remove(hd Handle) bool {
	slot := uint64(hd) - 1 - h.base // wraps far past the pushed range for zero and stale handles
	if slot >= h.seq-h.base || h.gone(slot) {
		return false
	}
	h.mark(slot)
	if h.items[0].seq-h.base == slot {
		h.dropRoot()
	} else {
		h.dead++ // a tombstone until it surfaces
	}
	return true
}

func (h *Heap[T]) gone(slot uint64) bool { return h.left[slot>>6]&(1<<(slot&63)) != 0 }
func (h *Heap[T]) mark(slot uint64)      { h.left[slot>>6] |= 1 << (slot & 63) }

// dropRoot takes the root out of the heap, refilling the hole with the
// last entry, and then every tombstone that surfaces in its place.
func (h *Heap[T]) dropRoot() {
	for {
		last := len(h.items) - 1
		moved := h.items[last]
		clear(h.items[last:]) // as in Reset
		h.items = h.items[:last]
		if last > 0 {
			h.down(0, moved)
		}
		if h.dead == 0 || last == 0 || !h.gone(h.items[0].seq-h.base) {
			return
		}
		h.dead--
	}
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

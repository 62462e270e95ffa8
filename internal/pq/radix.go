package pq

import (
	"fmt"
	"math/bits"
)

// Radix is a monotone priority queue: a radix heap over uint64 keys
// (Ahuja, Mehlhorn, Orlin & Tarjan 1990), for the expansions whose pushes
// never go below their last pop — Dijkstra over non-negative weights, where
// a push is the popped distance plus an edge weight, both counts of the
// graph's quantum. On such input it pops in exactly Heap's (priority,
// insertion) order, ties first-in first-out, at a cost that no longer grows
// with the queue: an entry is placed by the highest bit its key differs from
// the last pop in, and each time it moves it lands in a bucket strictly
// closer to the last pop.
//
// The contract: a push below the last pop — or below what the last Peek
// returned — panics while the queue holds anything; once the queue has
// drained (or been Reset) the next push starts a new run with no floor.
// There is no Remove. Every uint64 is a key.
//
// A pop takes the next entry of buckets[0] when it holds any. Otherwise the
// lowest non-empty bucket holds the minimum: a lone entry there is popped
// where it lies, and a bucket of two or more is refilled — redistributed by
// its least key, which brings the minimum and its ties into buckets[0].
//
// Entries are stored by value, as in Heap: a slot is T plus an 8-byte key,
// so an 8-byte T makes 16-byte slots. A popped entry stays in the backing
// arrays until it is overwritten, so T should hold no pointers.
//
// The zero value is an empty queue ready for use.
type Radix[T any] struct {
	// buckets[0] holds the entries whose key equals last; buckets[i], i ≥ 1,
	// those whose key first differs from last at bit i-1. Every bucket is in
	// insertion order: pushes append, and a bucket is refilled only from a
	// higher one, in that bucket's order, while it is empty.
	buckets [65][]radixEntry[T]
	// high[i], i ≥ 1, is the complement of the smallest key in buckets[i]
	// (0 while it is empty, which is also the complement of the largest
	// key), kept as entries arrive so that a refill need not scan the
	// bucket for it first.
	high [65]uint64
	head int    // entries of buckets[0] already popped
	n    int    // queued entries
	last uint64 // key of the last pop (or refilling Peek); 0 until the run's first
	full uint64 // bit i-1 set while buckets[i] is non-empty

	// PushCount and PopCount accumulate queue traffic, as Heap's do; they
	// are never reset by the queue itself.
	PushCount uint64
	PopCount  uint64
}

type radixEntry[T any] struct {
	value T
	key   uint64
}

// Len returns the number of queued items.
func (q *Radix[T]) Len() int { return q.n }

// Reset discards all queued items but keeps the backing arrays and the
// operation counters, and starts a new run.
func (q *Radix[T]) Reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.high = [65]uint64{}
	q.head, q.n, q.last, q.full = 0, 0, 0, 0
}

// Push inserts value with the given key. It panics when the queue is
// non-empty and key is below the last pop.
func (q *Radix[T]) Push(value T, key uint64) {
	if q.n == 0 {
		q.last = 0 // a new run
	} else if key < q.last {
		panic(fmt.Sprintf("pq: Radix push of key %d below the last pop %d", key, q.last))
	}
	q.put(radixEntry[T]{value, key})
	q.n++
	q.PushCount++
}

func (q *Radix[T]) put(e radixEntry[T]) {
	i := bits.Len64(e.key ^ q.last)
	q.buckets[i] = append(q.buckets[i], e)
	q.high[i] = max(q.high[i], ^e.key)
	if i > 0 {
		q.full |= 1 << (i - 1)
	}
}

// Pop removes and returns the minimum item, the earliest pushed among
// equal keys. ok is false when the queue is empty.
func (q *Radix[T]) Pop() (value T, key uint64, ok bool) {
	if q.n == 0 {
		return value, 0, false
	}
	q.n--
	q.PopCount++
	if len(q.buckets[0]) == 0 {
		i := bits.TrailingZeros64(q.full) + 1
		if b := q.buckets[i]; len(b) == 1 {
			// A lone entry in the lowest bucket is the minimum, and no tie
			// waits behind it: pop it where it lies instead of refilling it
			// into buckets[0] first. b keeps it readable past the drop.
			q.last = b[0].key
			q.drop(i)
			return b[0].value, b[0].key, true
		}
		q.refill(i)
	}
	e := q.buckets[0][q.head]
	if q.head++; q.head == len(q.buckets[0]) {
		q.buckets[0], q.head = q.buckets[0][:0], 0
	}
	return e.value, e.key, true
}

// Peek returns the minimum item without removing it. It may refill the
// lowest bucket, which advances the floor to the key it returns: from then
// on a push below that key panics, as it would after the pop. Every caller
// pops right after it peeks, with no push in between.
func (q *Radix[T]) Peek() (value T, key uint64, ok bool) {
	if q.n == 0 {
		return value, 0, false
	}
	if len(q.buckets[0]) == 0 {
		q.refill(bits.TrailingZeros64(q.full) + 1)
	}
	e := q.buckets[0][q.head]
	return e.value, e.key, true
}

// refill advances last to the smallest key queued — the least of bucket i,
// the lowest non-empty one — and redistributes that bucket by the new last.
// Its entries agree with the new last above the bucket's bit, so every one
// moves lower, and those equal to it fill buckets[0] in insertion order.
func (q *Radix[T]) refill(i int) {
	q.last = ^q.high[i]
	for _, e := range q.buckets[i] {
		q.put(e)
	}
	q.drop(i)
}

// drop empties buckets[i], i ≥ 1, once its entries have left it: the
// slice, its smallest key and its bit in full.
func (q *Radix[T]) drop(i int) {
	q.buckets[i] = q.buckets[i][:0]
	q.high[i] = 0
	q.full &^= 1 << (i - 1)
}

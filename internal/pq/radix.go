package pq

import (
	"fmt"
	"math"
	"math/bits"
)

// Radix is a monotone priority queue: a radix heap over the float64 bits of
// the priorities, for the expansions whose pushes never go below their last
// pop — Dijkstra over non-negative weights, where a push is the popped
// distance plus an edge weight. On such input it pops in exactly Heap's
// (priority, insertion) order, ties first-in first-out, at a cost that no
// longer grows with the queue: an entry is placed by the highest bit its key
// differs from the last pop in, and each time it moves it lands in a bucket
// strictly closer to the last pop.
//
// The contract: a push below the last pop — or below what the last Peek
// returned — panics while the queue holds anything; once the queue has
// drained (or been Reset) the next push starts a new run with no floor.
// There is no Remove. Priorities may be any float64 but NaN; -0 and +0 are
// one priority, as they are to Heap, and -0 pops as +0.
//
// Entries are stored by value, as in Heap. A popped entry stays in the
// backing arrays until it is overwritten, so T should hold no pointers.
//
// The zero value is an empty queue ready for use.
type Radix[T any] struct {
	// buckets[0] holds the entries whose key equals last; buckets[i], i ≥ 1,
	// those whose key first differs from last at bit i-1. Every bucket is in
	// insertion order: pushes append, and a bucket is refilled only from a
	// higher one, in that bucket's order, while it is empty.
	buckets [65][]radixEntry[T]
	// high[i], i ≥ 1, is the complement of the smallest key in buckets[i]
	// (0 while it is empty), kept as entries arrive so that a refill need
	// not scan the bucket for it first.
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

// radixKey maps a priority to a uint64 of the same order: the sign bit set
// on non-negative values, every bit flipped on negative ones.
func radixKey(p float64) uint64 {
	if p == 0 {
		return 1 << 63 // -0 sorts with +0
	}
	b := math.Float64bits(p)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixPriority inverts radixKey.
func radixPriority(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
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

// Push inserts value with the given priority. It panics when the queue is
// non-empty and priority is below the last pop.
func (q *Radix[T]) Push(value T, priority float64) {
	k := radixKey(priority)
	if q.n == 0 {
		q.last = 0 // a new run
	} else if k < q.last {
		panic(fmt.Sprintf("pq: Radix push of priority %v below the last pop %v", priority, radixPriority(q.last)))
	}
	q.put(radixEntry[T]{value, k})
	q.n++
	q.PushCount++
}

func (q *Radix[T]) put(e radixEntry[T]) {
	i := bits.Len64(e.key ^ q.last)
	q.buckets[i] = append(q.buckets[i], e)
	q.high[i] = max(q.high[i], ^e.key) // never 0: only a NaN keys to all ones
	if i > 0 {
		q.full |= 1 << (i - 1)
	}
}

// Pop removes and returns the minimum item, the earliest pushed among
// equal priorities. ok is false when the queue is empty.
func (q *Radix[T]) Pop() (value T, priority float64, ok bool) {
	if q.n == 0 {
		return value, 0, false
	}
	if len(q.buckets[0]) == 0 {
		q.refill()
	}
	e := q.buckets[0][q.head]
	q.n--
	q.PopCount++
	if q.head++; q.head == len(q.buckets[0]) {
		q.buckets[0], q.head = q.buckets[0][:0], 0
	}
	return e.value, radixPriority(e.key), true
}

// Peek returns the minimum item without removing it. It may refill the
// lowest bucket, which advances the floor to the priority it returns: from
// then on a push below that priority panics, as it would after the pop.
// Every caller pops right after it peeks, with no push in between.
func (q *Radix[T]) Peek() (value T, priority float64, ok bool) {
	if q.n == 0 {
		return value, 0, false
	}
	if len(q.buckets[0]) == 0 {
		q.refill()
	}
	e := q.buckets[0][q.head]
	return e.value, radixPriority(e.key), true
}

// refill advances last to the smallest key queued — the least of the
// lowest non-empty bucket — and redistributes that bucket by the new last.
// Its entries agree with the new last above the bucket's bit, so every one
// moves lower, and those equal to it fill buckets[0] in insertion order.
func (q *Radix[T]) refill() {
	i := bits.TrailingZeros64(q.full) + 1
	b := q.buckets[i]
	q.last = ^q.high[i]
	for _, e := range b {
		q.put(e)
	}
	q.buckets[i] = b[:0]
	q.high[i] = 0
	q.full &^= 1 << (i - 1)
}

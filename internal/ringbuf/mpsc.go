// Package ringbuf provides the bounded lock-free queue behind the simulated
// fabric's completion and receive queues: a multi-producer/single-consumer
// ring of fixed capacity, which models finite hardware queue depth.
package ringbuf

import (
	"math/bits"
	"sync/atomic"
)

// mpscSlot is one ring cell: the element plus its sequence stamp. The stamp
// is the slot's seqlock-style state word (see MPSC below); it is the only
// field accessed atomically — the element itself is ordered by the stamp's
// release/acquire pair.
type mpscSlot[T any] struct {
	seq atomic.Uint64
	val T
}

// MPSC is a bounded lock-free multi-producer/single-consumer FIFO. Any
// number of goroutines may Push concurrently; one goroutine at a time may
// Pop or PopBatch (the fabric guarantees this by polling a receive queue
// only under its owning context's protection).
//
// The design is the classic bounded ring with per-slot sequence stamps
// (Vyukov): producers claim a slot by CASing the shared tail, then publish
// the element by storing the slot's stamp; the consumer observes the stamp
// to know the element is fully written. At rest, slot i of lap L carries
// stamp i + L*cap; a producer that claimed position pos bumps it to pos+1
// ("written"), and the consumer, after reading, restores it to pos+cap
// ("free for the next lap"). The stamp therefore encodes both the slot's
// state and which lap it belongs to, which is what makes wraparound safe:
// a slow producer from lap L can never mistake a lap-L+1 slot for its own,
// because the stamp comparison is done on the full 64-bit position, not
// the masked index.
//
// Memory ordering: the producer's val write happens before its seq.Store
// (release); the consumer's seq.Load (acquire) happens before its val read.
// Go's sync/atomic gives sequentially consistent semantics, so the pair is
// a sound publication edge and the structure is race-detector clean.
//
// Len is intentionally approximate — see its doc comment.
type MPSC[T any] struct {
	slots []mpscSlot[T]
	mask  uint64

	// The pads give each hot cursor a cache line of its own (no false sharing).
	_    [64]byte
	head atomic.Uint64 // next position to pop (consumer-owned, atomic for Len)
	_    [64]byte
	tail atomic.Uint64 // next position to claim (shared among producers)
	_    [64]byte
}

// NewMPSC returns an MPSC ring with capacity rounded up to the next power
// of two (minimum 2).
func NewMPSC[T any](capacity int) *MPSC[T] {
	n := 2
	if capacity > 2 {
		n = 1 << bits.Len(uint(capacity-1))
	}
	q := &MPSC[T]{slots: make([]mpscSlot[T], n), mask: uint64(n - 1)}
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
	return q
}

// Cap returns the ring capacity.
func (q *MPSC[T]) Cap() int { return len(q.slots) }

// Len returns an instantaneous estimate of the element count. It is stale
// the moment it returns: concurrent producers may have claimed slots they
// have not yet published, and the consumer may be mid-pop. Callers must
// treat it as a monitoring signal (queue-depth snapshots, watchdog samples),
// never as a synchronization predicate — use Pop's return value to learn
// emptiness. The estimate is clamped to [0, Cap] so transient cursor skew
// can not produce a negative or over-capacity depth.
func (q *MPSC[T]) Len() int {
	n := int64(q.tail.Load() - q.head.Load())
	return int(min(max(n, 0), int64(len(q.slots))))
}

// Push appends v and reports whether there was room. Safe for any number of
// concurrent producers. A false return means the ring was full at the
// attempt (or a consumer was mid-pop on the boundary slot, which resolves
// by the time the caller retries).
func (q *MPSC[T]) Push(v T) bool {
	pos := q.tail.Load()
	for {
		slot := &q.slots[pos&q.mask]
		seq := slot.seq.Load()
		switch diff := int64(seq) - int64(pos); {
		case diff == 0:
			// Slot is free for this lap; claim it by advancing tail.
			if q.tail.CompareAndSwap(pos, pos+1) {
				slot.val = v
				slot.seq.Store(pos + 1) // publish: val happens-before this store
				return true
			}
			pos = q.tail.Load() // lost the race; reload and retry
		case diff < 0:
			// Slot still holds the previous lap's element: full.
			return false
		default:
			// Another producer claimed pos already; chase the tail.
			pos = q.tail.Load()
		}
	}
}

// Pop removes and returns the oldest element, reporting whether one
// existed. Single consumer only.
func (q *MPSC[T]) Pop() (T, bool) {
	var zero T
	pos := q.head.Load()
	slot := &q.slots[pos&q.mask]
	if int64(slot.seq.Load())-int64(pos+1) < 0 {
		return zero, false // not yet published: empty
	}
	v := slot.val
	slot.val = zero // release reference for GC
	slot.seq.Store(pos + uint64(len(q.slots)))
	q.head.Store(pos + 1)
	return v, true
}

// PopBatch pops up to len(dst) elements into dst and returns the count.
// Draining in batches amortizes cursor traffic on the hot poll path.
// Single consumer only.
func (q *MPSC[T]) PopBatch(dst []T) int {
	var zero T
	pos := q.head.Load()
	n := 0
	for n < len(dst) {
		slot := &q.slots[pos&q.mask]
		if int64(slot.seq.Load())-int64(pos+1) < 0 {
			break // next element not yet published
		}
		dst[n] = slot.val
		slot.val = zero
		slot.seq.Store(pos + uint64(len(q.slots)))
		pos++
		n++
	}
	if n > 0 {
		q.head.Store(pos)
	}
	return n
}

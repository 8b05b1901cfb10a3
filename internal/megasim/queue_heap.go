package megasim

import "time"

// scheduler is the per-shard event queue contract. Both implementations —
// the 4-ary heap and the calendar queue — maintain the strict (at, seq) total
// order, so for a fixed (seed, shards) pair the pop sequence, and with it
// the whole simulated run, is bit-identical across queue kinds.
//
// A scheduler is owned by one shard goroutine; like all shard state it is
// touched by the supervisor only at quiescent points (peekAt between
// windows, len/peak from accessors). peekAt and pop may reorganize
// internal structure (the calendar queue advances its cursor and folds
// overflow in), which is why even the read-shaped calls are documented as
// owner-only.
type scheduler interface {
	// push inserts *ev; the caller has already assigned ev.seq and
	// retains ownership of the pointed-to record (implementations copy).
	// Pointer passing keeps the 64-byte record out of a second stack
	// copy at the interface call, which dispatch cannot inline away.
	push(ev *event)
	// pop removes and returns the earliest pending event by (at, seq).
	// It must release the popped slot's fn/msg references. Calling pop
	// on an empty scheduler panics.
	pop() event
	// peekAt returns the timestamp of the earliest pending event.
	peekAt() (time.Duration, bool)
	// len reports how many events are pending.
	len() int
	// peak reports the pending-event high-water mark (ShardLoads'
	// HeapPeak, whatever the engine).
	peak() int
}

// newScheduler builds the queue kind the engine was configured with. New
// validated the kind, so the default arm is unreachable.
func newScheduler(kind QueueKind) scheduler {
	if kind == QueueCalendar {
		return newCalendarQueue()
	}
	return &heapQueue{}
}

// heapQueue is the original scheduler: a 4-ary min-heap over (at, seq) —
// half the depth of a binary heap and contiguous children, which matters
// when the heap holds tens of thousands of 64-byte in-flight events. Sift
// operations use hole insertion (shift entries toward the hole, write the
// moving element once) instead of pairwise swaps.
type heapQueue struct {
	heap      []event
	highWater int
}

// push inserts *ev into the heap.
func (q *heapQueue) push(ev *event) {
	//lint:pooled the heap's backing array persists for the shard's lifetime; growth amortizes to steady state
	q.heap = append(q.heap, *ev)
	if len(q.heap) > q.highWater {
		q.highWater = len(q.heap)
	}
	evSiftUp(q.heap, len(q.heap)-1)
}

// pop removes and returns the earliest event.
func (q *heapQueue) pop() event {
	h := q.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release fn/msg references
	q.heap = h[:n]
	if n > 0 {
		h[0] = last
		evSiftDown(q.heap, 0)
	}
	return top
}

// peekAt returns the earliest pending timestamp.
func (q *heapQueue) peekAt() (time.Duration, bool) {
	if len(q.heap) == 0 {
		return 0, false
	}
	return q.heap[0].at, true
}

func (q *heapQueue) len() int  { return len(q.heap) }
func (q *heapQueue) peak() int { return q.highWater }

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// evSiftUp and evSiftDown restore the 4-ary min-heap invariant over h
// after an append at i / a root replacement. They are shared by the heap
// scheduler and the calendar queue's overflow rung (the rung is the same
// structure holding only the far-future tail).
func evSiftUp(h []event, i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if !evLess(&ev, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func evSiftDown(h []event, i int) {
	n := len(h)
	ev := h[i]
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(&h[j], &h[m]) {
				m = j
			}
		}
		if !evLess(&h[m], &ev) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = ev
}

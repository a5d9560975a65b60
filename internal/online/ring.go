package online

import (
	"sync/atomic"

	"dart/internal/sim"
)

// Event is one serving-side observation delivered to the learner: the demand
// access a session just simulated and the prefetch outcome that access
// observed, copied from its sim.Step (at most one of Useful and Late).
type Event struct {
	Access       sim.Access
	Useful, Late bool
}

// Ring is a bounded single-producer single-consumer lock-free event queue.
// The producer is a session actor goroutine: it must never block on the
// learner, because serving latency cannot depend on training. The consumer
// is the learner's collector. When the ring is full, Push drops the event
// and counts the loss — online training tolerates a lossy signal; serving
// does not tolerate backpressure from training.
//
// Memory ordering: Push writes the slot and then advances tail with an
// atomic store; Drain reads tail atomically before touching slots, and
// advances head only after it is done with them, so a slot is never reused
// before its reader has finished. Both directions synchronise exclusively
// through the head/tail atomics — no locks on either path.
type Ring struct {
	buf  []Event
	mask uint64

	_       [7]uint64     // pad: keep producer and consumer cursors on separate cache lines
	tail    atomic.Uint64 // producer position (next slot to write)
	dropped atomic.Uint64 // producer-side loss counter
	_       [6]uint64     // pad
	head    atomic.Uint64 // consumer position (next slot to read)
}

// NewRing returns a ring holding at least capacity events (rounded up to a
// power of two, minimum 2).
func NewRing(capacity int) *Ring {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &Ring{buf: make([]Event, n), mask: uint64(n - 1)}
}

// Push appends an event. Producer-side only. It reports whether the event
// was accepted; false means the ring was full and the event was dropped
// (and counted).
func (r *Ring) Push(ev Event) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		r.dropped.Add(1)
		return false
	}
	r.buf[t&r.mask] = ev
	r.tail.Store(t + 1) // publishes the slot to the consumer
	return true
}

// Drain consumes every event currently in the ring, invoking fn on each in
// push order, and returns how many were consumed. Consumer-side only.
func (r *Ring) Drain(fn func(Event)) int {
	h := r.head.Load()
	t := r.tail.Load() // everything below t is fully written
	for i := h; i < t; i++ {
		fn(r.buf[i&r.mask])
	}
	if t != h {
		r.head.Store(t) // frees the slots for the producer
	}
	return int(t - h)
}

// Dropped reports how many events were lost to a full ring.
func (r *Ring) Dropped() uint64 { return r.dropped.Load() }

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

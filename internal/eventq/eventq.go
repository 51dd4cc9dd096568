// Package eventq provides the discrete-event simulation kernel shared by
// the memory-controller model and the multicore simulator: a time-ordered
// queue of callbacks with a monotonic simulated clock measured in cycles.
//
// Events scheduled for the same time run in FIFO order of scheduling, which
// keeps whole-system simulations deterministic. Every implementation orders
// events by the total key (time, schedule sequence), so the pop order is
// identical across implementations — the determinism contract the
// differential tests pin.
//
// Two implementations share the Interface:
//
//   - Queue, a calendar (bucket) queue tuned for the simulator's
//     near-monotonic timestamps. Insert and pop are amortized O(1) and the
//     steady state allocates nothing.
//   - HeapQueue, a classic binary heap: O(log n) operations, simple and
//     distribution-independent. It is the differential-test oracle for the
//     calendar queue; the simulator always runs the calendar queue.
package eventq

// event is one scheduled callback. seq breaks same-time ties in FIFO
// scheduling order.
type event struct {
	t   uint64
	seq uint64
	fn  func()
}

// before reports whether e runs before other: earlier time first, earlier
// scheduling order among equal times.
func (e event) before(other event) bool {
	if e.t != other.t {
		return e.t < other.t
	}
	return e.seq < other.seq
}

// Interface is the event-queue contract shared by Queue and HeapQueue. The
// simulator programs against it so the backend can be swapped (and
// differentially tested) without touching the engine.
type Interface interface {
	// Now returns the current simulated time in cycles.
	Now() uint64
	// Len returns the number of pending events.
	Len() int
	// Dispatched returns the number of events executed so far (the
	// simulated-events/sec numerator for benchmark reporting).
	Dispatched() uint64
	// At schedules fn at absolute time t; scheduling in the past is clamped
	// to Now.
	At(t uint64, fn func())
	// After schedules fn d cycles from now.
	After(d uint64, fn func())
	// Step pops and runs the earliest event, advancing the clock to its
	// time. It reports whether an event was run.
	Step() bool
	// Run executes events until the queue is empty.
	Run()
	// RunUntil executes events with time <= t, then advances the clock to t.
	RunUntil(t uint64)
	// RunChecked executes events until the queue is empty, invoking cont
	// after every `every` dispatched events and stopping early when it
	// returns false. It is the cancellation-aware run loop: the caller's
	// check latency is bounded by `every` events while the steady-state
	// dispatch stays inside the concrete implementation (and therefore
	// allocation-free). every == 0 behaves like Run (no checks).
	RunChecked(every uint64, cont func() bool)
	// Drain discards every pending event without running it and returns
	// the number dropped. A canceled simulation drains its queue so pooled
	// callbacks (and anything they capture) are released immediately; the
	// queue remains usable afterwards.
	Drain() int
}

// Kind selects an event-queue implementation.
type Kind uint8

const (
	// Calendar is the bucket queue (the default).
	Calendar Kind = iota
	// Heap is the binary-heap differential-test oracle.
	Heap
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Calendar:
		return "calendar"
	case Heap:
		return "heap"
	default:
		return "unknown"
	}
}

// New returns an empty queue of the given kind.
func New(k Kind) Interface {
	if k == Heap {
		return new(HeapQueue)
	}
	return new(Queue)
}

package eventq

// HeapQueue is the binary-heap event queue: O(log n) insert and pop with no
// assumptions about the time distribution. It is kept as the fallback
// implementation and as the oracle the calendar queue is differentially
// tested against. The sift operations are hand-written over the event slice
// (rather than container/heap) so scheduling does not box events into
// interfaces — the steady state allocates nothing.
//
// The zero value is ready to use.
type HeapQueue struct {
	now        uint64
	seq        uint64
	dispatched uint64
	items      []event
}

// Now returns the current simulated time in cycles.
func (q *HeapQueue) Now() uint64 { return q.now }

// Len returns the number of pending events.
func (q *HeapQueue) Len() int { return len(q.items) }

// Dispatched returns the number of events executed so far.
func (q *HeapQueue) Dispatched() uint64 { return q.dispatched }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) is clamped to Now, which keeps zero-latency interactions safe.
func (q *HeapQueue) At(t uint64, fn func()) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	q.items = append(q.items, event{t: t, seq: q.seq, fn: fn})
	q.siftUp(len(q.items) - 1)
}

// After schedules fn to run d cycles from now.
func (q *HeapQueue) After(d uint64, fn func()) {
	q.At(q.now+d, fn)
}

func (q *HeapQueue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.items[i].before(q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *HeapQueue) siftDown(i int) {
	n := len(q.items)
	for {
		least := i
		if l := 2*i + 1; l < n && q.items[l].before(q.items[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && q.items[r].before(q.items[least]) {
			least = r
		}
		if least == i {
			return
		}
		q.items[i], q.items[least] = q.items[least], q.items[i]
		i = least
	}
}

// pop removes and returns the root (earliest) event.
func (q *HeapQueue) pop() event {
	ev := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = event{}
	q.items = q.items[:last]
	if last > 0 {
		q.siftDown(0)
	}
	return ev
}

// Step pops and runs the earliest event, advancing the clock to its time.
// It reports whether an event was run.
func (q *HeapQueue) Step() bool {
	if len(q.items) == 0 {
		return false
	}
	ev := q.pop()
	q.now = ev.t
	q.dispatched++
	ev.fn()
	return true
}

// Run executes events until the queue is empty.
func (q *HeapQueue) Run() {
	for q.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled during execution are honored if they fall within t.
func (q *HeapQueue) RunUntil(t uint64) {
	for len(q.items) > 0 && q.items[0].t <= t {
		q.Step()
	}
	if q.now < t {
		q.now = t
	}
}

// RunChecked executes events until the queue is empty, consulting cont
// every `every` dispatched events and stopping when it returns false.
func (q *HeapQueue) RunChecked(every uint64, cont func() bool) {
	if every == 0 {
		q.Run()
		return
	}
	for {
		for i := uint64(0); i < every; i++ {
			if !q.Step() {
				return
			}
		}
		if !cont() {
			return
		}
	}
}

// Drain discards every pending event and returns the number dropped. The
// item storage is retained for reuse.
func (q *HeapQueue) Drain() int {
	n := len(q.items)
	for i := range q.items {
		q.items[i] = event{}
	}
	q.items = q.items[:0]
	return n
}

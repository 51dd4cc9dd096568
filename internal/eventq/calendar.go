package eventq

// Queue is the calendar (bucket) event queue: pending events are hashed by
// time into an array of buckets whose combined span — the "year" — covers
// the currently scheduled horizon. The simulator's schedules are
// near-monotonic (most events land within a few hundred cycles of the
// clock), so an event is almost always pushed into a bucket at or just
// ahead of the one being drained, and both insert and pop are amortized
// O(1) with zero steady-state allocations.
//
// The zero value is ready to use.
//
// Invariants and tuning:
//
//   - Every pending event satisfies t >= now (At clamps), so the pop scan
//     can always start at now's bucket.
//   - Buckets keep events sorted by (t, seq); an insert walks back from the
//     tail, which is O(1) for monotonic schedules because new events carry
//     the largest seq.
//   - The bucket count tracks the population (grow at 2x buckets, shrink at
//     1/4) and the bucket width tracks the event-time spread, so the year
//     usually covers every pending event and the rare event beyond the
//     year is found by a direct scan of bucket heads.
type Queue struct {
	now        uint64
	seq        uint64
	dispatched uint64
	n          int
	width      uint64
	buckets    []bucket
	mask       uint64
	scratch    []event // resize staging, reused across resizes
	// store is the high-water bucket array; buckets is store[:size]. Keeping
	// the larger backing (and each bucket's event capacity) makes grow/shrink
	// cycles allocation-free once the queue has seen its peak population.
	store []bucket
	// OnResize, when non-nil, is invoked after every calendar resize with
	// the new bucket count, the re-derived bucket width and the pending
	// population. Resizes are rare (they track the population high-water
	// mark), so the hook costs one nil check on a cold path; the telemetry
	// tracer uses it to log queue reshapes during long sweeps.
	OnResize func(buckets int, width uint64, pending int)
}

// bucket is one calendar day: a sorted slice with a consumed-head index so
// popping the front is O(1) without losing the slice's capacity.
type bucket struct {
	ev   []event
	head int
}

func (b *bucket) len() int { return len(b.ev) - b.head }

func (b *bucket) front() *event { return &b.ev[b.head] }

//simcheck:hotpath
func (b *bucket) popFront() event {
	e := b.ev[b.head]
	b.ev[b.head] = event{}
	b.head++
	if b.head == len(b.ev) {
		b.ev = b.ev[:0]
		b.head = 0
	}
	return e
}

// insert places ev in sorted (t, seq) position, walking back from the tail.
//
//simcheck:hotpath
func (b *bucket) insert(ev event) {
	//simcheck:allow(hotpath) high-water bucket store: the backing array is retained across pops (popFront resets to ev[:0]), so append stops allocating once the run reaches steady state — TestZeroAllocSteadyState pins this
	b.ev = append(b.ev, ev)
	for i := len(b.ev) - 1; i > b.head && b.ev[i].before(b.ev[i-1]); i-- {
		b.ev[i], b.ev[i-1] = b.ev[i-1], b.ev[i]
	}
}

const (
	minBuckets = 8
	maxBuckets = 1 << 20
)

// Now returns the current simulated time in cycles.
func (q *Queue) Now() uint64 { return q.now }

// Len returns the number of pending events.
func (q *Queue) Len() int { return q.n }

// Dispatched returns the number of events executed so far.
func (q *Queue) Dispatched() uint64 { return q.dispatched }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) is clamped to Now, which keeps zero-latency interactions safe.
//
//simcheck:hotpath
func (q *Queue) At(t uint64, fn func()) {
	if t < q.now {
		t = q.now
	}
	q.seq++
	if q.buckets == nil {
		q.init()
	} else if q.n >= 2*len(q.buckets) && len(q.buckets) < maxBuckets {
		q.resize(2 * len(q.buckets))
	}
	q.buckets[(t/q.width)&q.mask].insert(event{t: t, seq: q.seq, fn: fn})
	q.n++
}

// After schedules fn to run d cycles from now.
//
//simcheck:hotpath
func (q *Queue) After(d uint64, fn func()) {
	q.At(q.now+d, fn)
}

func (q *Queue) init() {
	q.store = make([]bucket, minBuckets)
	q.buckets = q.store
	q.mask = minBuckets - 1
	q.width = 64 // refined by the first resize
}

// resize redistributes every pending event over newSize buckets, re-deriving
// the bucket width from the current event-time spread so that one "year"
// (width * buckets) keeps covering the scheduled horizon.
func (q *Queue) resize(newSize int) {
	all := q.scratch[:0]
	for i := range q.buckets {
		b := &q.buckets[i]
		all = append(all, b.ev[b.head:]...)
		b.ev = b.ev[:0]
		b.head = 0
	}
	q.scratch = all[:0] // keep the staging capacity for next time

	if newSize <= cap(q.store) {
		// Every bucket in the store outside the old window is empty (events
		// only ever live in the current window, and the gather above just
		// drained it), so re-slicing is enough and reuses event capacity.
		q.buckets = q.store[:newSize]
	} else {
		grown := make([]bucket, newSize)
		copy(grown, q.store)
		q.store = grown
		q.buckets = grown
	}
	q.mask = uint64(newSize) - 1
	q.width = spreadWidth(all)
	for _, ev := range all {
		q.buckets[(ev.t/q.width)&q.mask].insert(ev)
	}
	// Drop callback references left in the staging slice.
	for i := range all {
		all[i] = event{}
	}
	if q.OnResize != nil {
		q.OnResize(newSize, q.width, q.n)
	}
}

// spreadWidth picks a bucket width ~2x the mean gap between pending events,
// so a year of len(buckets) >= n/2 buckets spans the whole horizon.
func spreadWidth(all []event) uint64 {
	if len(all) == 0 {
		return 64
	}
	lo, hi := all[0].t, all[0].t
	for _, ev := range all[1:] {
		if ev.t < lo {
			lo = ev.t
		}
		if ev.t > hi {
			hi = ev.t
		}
	}
	w := 2 * (hi - lo + 1) / uint64(len(all))
	if w == 0 {
		w = 1
	}
	return w
}

// pop removes and returns the earliest event. It scans buckets starting at
// now's calendar day; a bucket's head is consumed only when it belongs to
// the day under scan, which defers far-future events to their own year. If
// a whole year holds nothing current, the queue is sparse and the minimum
// is found directly over bucket heads.
//
//simcheck:hotpath
func (q *Queue) pop() (event, bool) {
	if q.n == 0 {
		return event{}, false
	}
	day := q.now / q.width
	for i := 0; i < len(q.buckets); i++ {
		b := &q.buckets[(day+uint64(i))&q.mask]
		if b.len() > 0 && b.front().t/q.width == day+uint64(i) {
			return q.take(b), true
		}
	}
	// Sparse queue: direct search over bucket heads (each is its bucket's
	// minimum, so the global minimum is among them).
	best := -1
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.len() == 0 {
			continue
		}
		if best < 0 || b.front().before(*q.buckets[best].front()) {
			best = i
		}
	}
	return q.take(&q.buckets[best]), true
}

//simcheck:hotpath
func (q *Queue) take(b *bucket) event {
	ev := b.popFront()
	q.n--
	if q.n < len(q.buckets)/4 && len(q.buckets) > minBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return ev
}

// peekTime returns the earliest pending event time (valid only when Len>0).
func (q *Queue) peekTime() (uint64, bool) {
	if q.n == 0 {
		return 0, false
	}
	day := q.now / q.width
	for i := 0; i < len(q.buckets); i++ {
		b := &q.buckets[(day+uint64(i))&q.mask]
		if b.len() > 0 && b.front().t/q.width == day+uint64(i) {
			return b.front().t, true
		}
	}
	best := -1
	for i := range q.buckets {
		b := &q.buckets[i]
		if b.len() == 0 {
			continue
		}
		if best < 0 || b.front().before(*q.buckets[best].front()) {
			best = i
		}
	}
	return q.buckets[best].front().t, true
}

// Step pops and runs the earliest event, advancing the clock to its time.
// It reports whether an event was run.
//
//simcheck:hotpath
func (q *Queue) Step() bool {
	ev, ok := q.pop()
	if !ok {
		return false
	}
	q.now = ev.t
	q.dispatched++
	ev.fn()
	return true
}

// Run executes events until the queue is empty.
func (q *Queue) Run() {
	for q.Step() {
	}
}

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled during execution are honored if they fall within t.
func (q *Queue) RunUntil(t uint64) {
	for {
		next, ok := q.peekTime()
		if !ok || next > t {
			break
		}
		q.Step()
	}
	if q.now < t {
		q.now = t
	}
}

// RunChecked executes events until the queue is empty, consulting cont
// every `every` dispatched events and stopping when it returns false.
func (q *Queue) RunChecked(every uint64, cont func() bool) {
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
// bucket storage (and its high-water capacity) is retained for reuse.
func (q *Queue) Drain() int {
	n := q.n
	for i := range q.buckets {
		b := &q.buckets[i]
		for j := b.head; j < len(b.ev); j++ {
			b.ev[j] = event{}
		}
		b.ev = b.ev[:0]
		b.head = 0
	}
	q.n = 0
	return n
}

// Package trace defines memory-reference streams: the interface between the
// workload kernels (which emit per-thread sequences of computation and
// memory accesses) and the multicore simulator (which executes them against
// a cache hierarchy and memory controllers).
//
// A reference models one memory instruction together with the computation
// that precedes it: "execute Work cycles, then issue a Load/Store at Addr".
// The Dep flag distinguishes dependent loads (the core cannot retire past
// them until the data returns — e.g. a pointer chase or an indexed gather)
// from independent accesses that can overlap with further execution while an
// MSHR is available (streaming reads, stores drained through a write
// buffer). The mix of dependent and independent references is what gives a
// workload its memory-level parallelism, and in turn the super-linear growth
// of contention the paper measures.
package trace

// Kind distinguishes loads from stores.
type Kind uint8

const (
	// Load is a read access.
	Load Kind = iota
	// Store is a write access.
	Store
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return "unknown"
	}
}

// Ref is one memory reference preceded by Work cycles of computation, or —
// when Sync is set — a barrier rendezvous point.
type Ref struct {
	// Addr is the byte address accessed (ignored for Sync refs).
	Addr uint64
	// Kind is Load or Store.
	Kind Kind
	// Dep marks a dependent access: the issuing core stalls until the data
	// returns before executing anything further.
	Dep bool
	// Sync marks a barrier: after retiring Work cycles, the thread blocks
	// until every thread of the program has reached the same barrier
	// ordinal. No memory access is performed. Threads that finish their
	// stream count as having arrived at all remaining barriers.
	Sync bool
	// Work is the number of computation cycles the core retires before
	// issuing this reference (for Sync, before arriving at the barrier).
	Work uint32
}

// Stream produces a sequence of references. Streams are single-consumer and
// not safe for concurrent use.
//
// Next returns the next reference and true, or a zero Ref and false when
// the stream is exhausted. Batch returns every reference the stream has
// buffered and not yet handed out, refilling first when none is left, and
// marks them consumed; it returns an empty slice only at the end of the
// stream. The slice stays valid until the next call to Next or Batch. Both
// advance the same position, so calls may be mixed freely.
type Stream interface {
	Next() (Ref, bool)
	Batch() []Ref
}

// sliceStream iterates over a materialized reference slice.
type sliceStream struct {
	refs []Ref
	pos  int
}

// FromSlice returns a Stream over a materialized slice of references. The
// slice is not copied; the caller must not mutate it while streaming.
func FromSlice(refs []Ref) Stream {
	return &sliceStream{refs: refs}
}

func (s *sliceStream) Next() (Ref, bool) {
	if s.pos >= len(s.refs) {
		return Ref{}, false
	}
	r := s.refs[s.pos]
	s.pos++
	return r, true
}

// Batch hands out the whole unconsumed rest of the slice.
func (s *sliceStream) Batch() []Ref {
	if s.pos >= len(s.refs) {
		return nil
	}
	b := s.refs[s.pos:]
	s.pos = len(s.refs)
	return b
}

// Collect drains a stream into a slice, up to max references (max <= 0
// means unbounded). Intended for tests and small inspection tasks, not for
// full workload traces.
func Collect(s Stream, max int) []Ref {
	var out []Ref
	for {
		if max > 0 && len(out) >= max {
			return out
		}
		r, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

// Count drains a stream and returns the number of references it produced.
func Count(s Stream) int {
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}

// Fill returns a Stream that pulls references from fill in batches, with no
// goroutine and no per-batch allocation. The stream owns one buffer of
// fillCap references; whenever it is drained, the stream hands it to fill
// with length zero. fill appends the next batch and reports whether more
// batches follow; a batch may be empty. fill may append past cap(buf): the
// stream keeps the grown buffer for later batches, so a filler that appends
// whole units and returns once its batch reaches half the capacity grows
// the buffer only until it holds twice the filler's largest unit.
func Fill(fill func(buf []Ref) ([]Ref, bool)) Stream {
	return &fillStream{fill: fill, buf: make([]Ref, 0, fillCap), more: true}
}

// fillCap is a Fill stream's buffer size in references (8 KB). Every
// simulated thread holds one, and a refill costs one call per batch. On the
// AMDNUMA48 CG.W panel (2-CPU Xeon, one run each) sweep time was 1.74-1.82 s
// from 128 to 512, 1.92 s at 1024 and 2.01 s at 4096, and allocation grew
// with the size. Half of 512 holds the largest unit any kernel appends (a
// 256-ref fluidanimate row).
const fillCap = 512

type fillStream struct {
	fill func([]Ref) ([]Ref, bool)
	buf  []Ref
	pos  int
	more bool
}

// refill makes sure unconsumed references are buffered, calling fill until
// a batch is non-empty, and reports false at the end of the stream.
//
//simcheck:hotpath
func (s *fillStream) refill() bool {
	for s.pos == len(s.buf) {
		if !s.more {
			s.fill, s.buf, s.pos = nil, nil, 0 // release the kernel state
			return false
		}
		s.buf, s.more = s.fill(s.buf[:0])
		s.pos = 0
	}
	return true
}

// Next hands out one reference.
//
//simcheck:hotpath
func (s *fillStream) Next() (Ref, bool) {
	if !s.refill() {
		return Ref{}, false
	}
	r := s.buf[s.pos]
	s.pos++
	return r, true
}

// Batch is called once per buffer of simulated references.
//
//simcheck:hotpath
func (s *fillStream) Batch() []Ref {
	if !s.refill() {
		return nil
	}
	b := s.buf[s.pos:]
	s.pos = len(s.buf)
	return b
}

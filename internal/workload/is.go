package workload

import (
	"fmt"

	"repro/internal/trace"
)

// isParams sizes the integer-sort kernel per class. As in NPB IS, the
// ranking histogram spans the key range, so from class W upward it exceeds
// the LLC together with the key arrays.
type isParams struct {
	keys       int // number of 4-byte keys
	keyRange   int // histogram entries (NPB's Bmax)
	iterations int
}

var isClasses = map[Class]isParams{
	S: {keys: 16 << 10, keyRange: 8 << 10, iterations: 40},
	W: {keys: 128 << 10, keyRange: 128 << 10, iterations: 6},
	A: {keys: 256 << 10, keyRange: 256 << 10, iterations: 4},
	B: {keys: 512 << 10, keyRange: 512 << 10, iterations: 2},
	C: {keys: 1 << 20, keyRange: 1 << 20, iterations: 2},
}

// is is the parallel sorting dwarf: NPB's bucket/counting sort on integers.
// Its traffic mixes streaming key reads (independent, 16 keys per line)
// with histogram increments and ranked scatter stores whose ADDRESSES come
// from key values — genuinely data-dependent accesses with little
// memory-level parallelism. The dependent portion self-throttles, which is
// why the paper measures only moderate contention growth for IS despite
// its large footprint.
type is struct {
	class Class
	p     isParams
	tune  Tuning
}

func init() {
	register("IS", "Parallel sorting: bucket sort on integers",
		[]Class{S, W, A, B, C},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := isClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload IS: no class %q", class)
			}
			return &is{class: class, p: p, tune: tune}, nil
		})
}

func (w *is) Name() string        { return "IS" }
func (w *is) Class() Class        { return w.class }
func (w *is) Description() string { return Describe("IS") }

// FootprintBytes covers input keys, output keys and the key-range
// histogram.
func (w *is) FootprintBytes() uint64 {
	return uint64(w.p.keys)*4*2 + uint64(w.p.keyRange)*4
}

const (
	isKeys = iota
	isHist
	isOutput
)

// Streams partitions the key array statically. Each iteration has the
// three phases of NPB IS: count (stream keys, bump the key's histogram
// entry), rank (prefix-sum sweep over the histogram), and permute (stream
// keys again, store each at its rank), followed by the iteration barrier.
func (w *is) Streams(threads int) []trace.Stream {
	iters := w.tune.scale(w.p.iterations)
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		cur := &isCursor{p: w.p, thread: t, iters: iters, seed: uint64(seedFor("IS", w.class, t)) | 1}
		cur.lo, cur.hi = partition(w.p.keys, threads, t)
		cur.hlo, cur.hhi = partition(w.p.keyRange, threads, t)
		cur.i, cur.rng = cur.lo, cur.seed
		streams[t] = trace.Fill(cur.fill)
	}
	return streams
}

// isCursor is one thread's position in the IS iteration: phase 0 counts
// keys [lo, hi), phase 1 ranks buckets [hlo, hhi), phase 2 permutes the
// keys, phase 3 is the barrier. Both key phases replay the same key
// sequence from seed.
type isCursor struct {
	p             isParams
	thread, iters int
	seed, rng     uint64
	lo, hi        int
	hlo, hhi      int
	it, phase, i  int
}

func (c *isCursor) fill(buf []trace.Ref) ([]trace.Ref, bool) {
	keyRange := uint64(c.p.keyRange)
	for c.it < c.iters {
		if full(buf) {
			return buf, true
		}
		switch {
		case c.phase == 0 && c.i < c.hi:
			// Count: load key (with the shift/mask work of key
			// extraction), then increment its histogram entry. The entry
			// LOAD is address-dependent on the key; the store to the same
			// line drains through the write buffer.
			c.rng = xorshift64(c.rng)
			entry := base(isHist) + (c.rng%keyRange)*4
			i := len(buf)
			buf = grow(buf, 3)
			buf[i] = trace.Ref{Addr: base(isKeys) + uint64(c.i)*4, Kind: trace.Load, Work: 4}
			buf[i+1] = trace.Ref{Addr: entry, Kind: trace.Load, Dep: true, Work: 1}
			buf[i+2] = trace.Ref{Addr: entry, Kind: trace.Store, Work: 1}
			c.i++
		case c.phase == 0:
			c.phase, c.i = 1, c.hlo
		case c.phase == 1 && c.i < c.hhi:
			// Rank: prefix-sum sweep over the thread's share of the
			// histogram (independent streaming).
			i := len(buf)
			buf = grow(buf, 1)
			buf[i] = trace.Ref{Addr: base(isHist) + uint64(c.i)*4, Kind: trace.Load, Work: 1}
			c.i++
		case c.phase == 1:
			c.phase, c.i, c.rng = 2, c.lo, c.seed
		case c.phase == 2 && c.i < c.hi:
			// Permute: reload the key; its destination comes from a rank
			// lookup through the histogram (an address-dependent load),
			// then the key is scattered into the output. The store
			// serializes through the bucket pointer's read-modify-write
			// (key_buff_ptr[key]++ in NPB IS).
			c.rng = xorshift64(c.rng)
			i := len(buf)
			buf = grow(buf, 3)
			buf[i] = trace.Ref{Addr: base(isKeys) + uint64(c.i)*4, Kind: trace.Load, Work: 4}
			buf[i+1] = trace.Ref{Addr: base(isHist) + (c.rng%keyRange)*4, Kind: trace.Load, Dep: true, Work: 1}
			buf[i+2] = trace.Ref{Addr: base(isOutput) + (c.rng%uint64(c.p.keys))*4, Kind: trace.Store, Dep: true, Work: 1}
			c.i++
		case c.phase == 2:
			c.phase = 3
		default:
			buf = appendBarrier(buf, c.thread, c.it)
			c.it, c.phase, c.i, c.rng = c.it+1, 0, c.lo, c.seed
		}
	}
	return buf, false
}

package workload

import (
	"fmt"

	"repro/internal/trace"
)

// ftParams sizes the 3D FFT per class: a grid of nx*ny*nz complex values
// (16 bytes) double-buffered between two arrays.
type ftParams struct {
	nx, ny, nz int
	iterations int
}

var ftClasses = map[Class]ftParams{
	S: {nx: 16, ny: 16, nz: 16, iterations: 40},
	W: {nx: 32, ny: 16, nz: 16, iterations: 16},
	A: {nx: 32, ny: 32, nz: 32, iterations: 3},
	B: {nx: 64, ny: 32, nz: 32, iterations: 2},
	C: {nx: 64, ny: 64, nz: 32, iterations: 2},
}

// ft is the spectral-methods dwarf: a 3D fast Fourier transform applied
// dimension by dimension. The x-dimension pass streams sequentially, while
// the y and z passes stride by a row and a plane respectively — for grids
// beyond the LLC almost every strided access misses, but the butterflies
// within a pass are independent, so MLP stays high and contention lands
// between IS and SP, as the paper measures.
type ft struct {
	class Class
	p     ftParams
	tune  Tuning
}

func init() {
	register("FT", "Spectral methods: fast Fourier transform",
		[]Class{S, W, A, B, C},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := ftClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload FT: no class %q", class)
			}
			return &ft{class: class, p: p, tune: tune}, nil
		})
}

func (f *ft) Name() string        { return "FT" }
func (f *ft) Class() Class        { return f.class }
func (f *ft) Description() string { return Describe("FT") }

// FootprintBytes covers the two complex grid buffers.
func (f *ft) FootprintBytes() uint64 {
	cells := uint64(f.p.nx) * uint64(f.p.ny) * uint64(f.p.nz)
	return cells * 16 * 2
}

const (
	ftU0 = iota
	ftU1
)

// ftLogWork is the per-element butterfly work of a transform along a
// length-n line: n log n work over n elements.
func ftLogWork(n int) uint32 {
	w := uint32(1)
	for n > 1 {
		n >>= 1
		w++
	}
	return 2 * w
}

// Streams splits the transform lines of each pass across threads, as the
// OpenMP NPB FT does. Each iteration runs the three dimensional passes
// (read from one buffer, write the other) followed by the evolve sweep and
// the iteration barrier.
func (f *ft) Streams(threads int) []trace.Stream {
	iters := f.tune.scale(f.p.iterations)
	p := f.p
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		cur := &ftCursor{p: p, thread: t, iters: iters, src: ftU0, dst: ftU1}
		cur.lines[0][0], cur.lines[0][1] = partition(p.ny*p.nz, threads, t)
		cur.lines[1][0], cur.lines[1][1] = partition(p.nx*p.nz, threads, t)
		cur.lines[2][0], cur.lines[2][1] = partition(p.nx*p.ny, threads, t)
		cur.clo, cur.chi = partition(p.nx*p.ny*p.nz, threads, t)
		cur.i = cur.lines[0][0]
		streams[t] = trace.Fill(cur.fill)
	}
	return streams
}

// ftCursor is one thread's position in the FT iteration: phases 0-2 are
// the x, y and z passes over the lines [lines[phase][0], lines[phase][1]),
// phase 3 the evolve sweep over cells [clo, chi), phase 4 the barrier. src
// and dst swap after every pass.
type ftCursor struct {
	p             ftParams
	thread, iters int
	lines         [3][2]int
	clo, chi      int
	src, dst      int
	it, phase, i  int
}

func (c *ftCursor) fill(buf []trace.Ref) ([]trace.Ref, bool) {
	for c.it < c.iters {
		if full(buf) {
			return buf, true
		}
		switch {
		case c.phase <= 2 && c.i < c.lines[c.phase][1]:
			buf = c.appendLine(buf)
			c.i++
		case c.phase <= 2:
			c.src, c.dst = c.dst, c.src
			c.phase++
			if c.phase <= 2 {
				c.i = c.lines[c.phase][0]
			} else {
				c.i = c.clo
			}
		case c.phase == 3 && c.i < c.chi:
			// evolve: pointwise multiply, sequential sweep over the
			// thread's share of cells.
			addr := base(c.src) + uint64(c.i)*16
			i := len(buf)
			buf = grow(buf, 2)
			buf[i] = trace.Ref{Addr: addr, Kind: trace.Load, Work: 2}
			buf[i+1] = trace.Ref{Addr: addr, Kind: trace.Store, Work: 0}
			c.i++
		case c.phase == 3:
			c.phase = 4
		default:
			// Iteration barrier + checksum reduction.
			buf = appendBarrier(buf, c.thread, c.it)
			c.it, c.phase, c.i = c.it+1, 0, c.lines[0][0]
		}
	}
	return buf, false
}

// appendLine appends line i of the current pass: every element loaded from
// src with the butterfly work, then every result stored to dst. Cells are
// indexed z*nx*ny + y*nx + x, with x contiguous.
func (c *ftCursor) appendLine(buf []trace.Ref) []trace.Ref {
	p := c.p
	var x, y, z, n, stride int
	switch c.phase {
	case 0: // x pass: lines are (y, z) pairs.
		y, z, n, stride = c.i%p.ny, c.i/p.ny, p.nx, 1
	case 1: // y pass: lines are (x, z) pairs; stride nx.
		x, z, n, stride = c.i%p.nx, c.i/p.nx, p.ny, p.nx
	default: // z pass: lines are (x, y) pairs; stride nx*ny (a whole plane).
		x, y, n, stride = c.i%p.nx, c.i/p.nx, p.nz, p.nx*p.ny
	}
	first := uint64(z)*uint64(p.nx)*uint64(p.ny) + uint64(y)*uint64(p.nx) + uint64(x)
	work := ftLogWork(n)
	i := len(buf)
	buf = grow(buf, 2*n)
	for e := 0; e < n; e++ {
		off := (first + uint64(e*stride)) * 16
		buf[i+e] = trace.Ref{Addr: base(c.src) + off, Kind: trace.Load, Work: work}
		buf[i+n+e] = trace.Ref{Addr: base(c.dst) + off, Kind: trace.Store, Work: 1}
	}
	return buf
}

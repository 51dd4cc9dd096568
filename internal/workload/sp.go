package workload

import (
	"fmt"

	"repro/internal/trace"
)

// spParams sizes the pentadiagonal solver per class: an n^3 grid with five
// solution components per cell (40 bytes), plus right-hand-side and
// factorization workspace of the same shape.
type spParams struct {
	n          int
	iterations int
}

var spClasses = map[Class]spParams{
	S: {n: 8, iterations: 60},
	W: {n: 14, iterations: 20},
	A: {n: 20, iterations: 4},
	B: {n: 30, iterations: 2},
	C: {n: 40, iterations: 2},
}

// sp is the structured-grid dwarf: an ADI pentadiagonal solver that sweeps
// the 3D grid along all three dimensions every iteration (paper section V:
// "the pentadiagonal solver SP accesses memories along all dimensions of a
// 3D space; such complex data access patterns lead to large number of cache
// misses"). The y and z sweeps stride by a row and a plane, so for grids
// beyond the LLC almost every access misses; the addresses are affine, so
// the misses issue at full memory-level parallelism and saturate the
// memory controllers. SP is the paper's highest-contention program.
type sp struct {
	class Class
	p     spParams
	tune  Tuning
}

func init() {
	register("SP", "Structured grid: pentadiagonal solver",
		[]Class{S, W, A, B, C},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := spClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload SP: no class %q", class)
			}
			return &sp{class: class, p: p, tune: tune}, nil
		})
}

func (s *sp) Name() string        { return "SP" }
func (s *sp) Class() Class        { return s.class }
func (s *sp) Description() string { return Describe("SP") }

// FootprintBytes covers solution, RHS and factorization arrays: three n^3
// grids of 40-byte cells.
func (s *sp) FootprintBytes() uint64 {
	cells := uint64(s.p.n) * uint64(s.p.n) * uint64(s.p.n)
	return cells * 40 * 3
}

const (
	spU = iota
	spRHS
	spLHS
)

const spCellBytes = 40

// Streams reproduces the SP iteration: compute_rhs (sequential streaming),
// then x_solve, y_solve and z_solve, each a forward elimination followed by
// back substitution along every grid line of that dimension, partitioned
// across threads by line, then the iteration barrier.
func (s *sp) Streams(threads int) []trace.Stream {
	iters := s.tune.scale(s.p.iterations)
	n := s.p.n
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		cur := &spCursor{n: n, thread: t, iters: iters}
		cur.clo, cur.chi = partition(n*n*n, threads, t)
		cur.lo, cur.hi = partition(n*n, threads, t)
		cur.i = cur.clo
		streams[t] = trace.Fill(cur.fill)
	}
	return streams
}

// spCursor is one thread's position in the SP iteration: phase 0 is
// compute_rhs over cells [clo, chi), phases 1-3 are the x, y and z solves
// over lines [lo, hi), phase 4 is the barrier. i is the cell or line.
type spCursor struct {
	n             int
	thread, iters int
	clo, chi      int
	lo, hi        int
	it, phase, i  int
}

func (c *spCursor) fill(buf []trace.Ref) ([]trace.Ref, bool) {
	n := uint64(c.n)
	for c.it < c.iters {
		if full(buf) {
			return buf, true
		}
		switch {
		case c.phase == 0 && c.i < c.chi:
			// compute_rhs: sequential sweep of the whole grid.
			i := len(buf)
			buf = grow(buf, 2)
			buf[i] = trace.Ref{Addr: base(spU) + uint64(c.i)*spCellBytes, Kind: trace.Load, Work: 3}
			buf[i+1] = trace.Ref{Addr: base(spRHS) + uint64(c.i)*spCellBytes, Kind: trace.Store, Work: 2}
			c.i++
		case c.phase >= 1 && c.phase <= 3 && c.i < c.hi:
			// Line l of cell index z*n*n + y*n + x, with x contiguous.
			l := uint64(c.i)
			var first, stride uint64
			switch c.phase {
			case 1: // x_solve: lines along x (contiguous).
				first, stride = (l/n)*n*n+(l%n)*n, 1
			case 2: // y_solve: lines along y (stride n cells).
				first, stride = (l/n)*n*n+l%n, n
			case 3: // z_solve: lines along z (stride n^2 cells — a plane).
				first, stride = (l/n)*n+l%n, n*n
			}
			buf = c.appendLine(buf, first, stride)
			c.i++
		case c.phase == 4:
			// ADI iteration barrier + residual reduction.
			buf = appendBarrier(buf, c.thread, c.it)
			c.it, c.phase, c.i = c.it+1, 0, c.clo
		default:
			c.phase, c.i = c.phase+1, c.lo
		}
	}
	return buf, false
}

// appendLine appends the accesses of the pentadiagonal recurrence along one
// grid line of cells first, first+stride, ...: forward elimination reading
// LHS and updating RHS, then back substitution updating U. The computation
// is a serial recurrence, but the ADDRESSES are affine in the line index,
// so the loads are issued independently (the core/prefetcher runs ahead) —
// SP floods the memory system with strided misses at full memory-level
// parallelism, which is exactly why the paper measures it as the
// highest-contention program.
func (c *spCursor) appendLine(buf []trace.Ref, first, stride uint64) []trace.Ref {
	i := len(buf)
	buf = grow(buf, 4*c.n)
	for e := 0; e < c.n; e++ {
		off := (first + uint64(e)*stride) * spCellBytes
		buf[i] = trace.Ref{Addr: base(spLHS) + off, Kind: trace.Load, Work: 5}
		buf[i+1] = trace.Ref{Addr: base(spRHS) + off, Kind: trace.Store, Work: 3}
		i += 2
	}
	// Back substitution, reverse order.
	for e := c.n - 1; e >= 0; e-- {
		off := (first + uint64(e)*stride) * spCellBytes
		buf[i] = trace.Ref{Addr: base(spRHS) + off, Kind: trace.Load, Work: 4}
		buf[i+1] = trace.Ref{Addr: base(spU) + off, Kind: trace.Store, Work: 2}
		i += 2
	}
	return buf
}

package workload

import (
	"fmt"

	"repro/internal/trace"
)

// mgParams sizes the multigrid kernel per class: the finest grid is n^3
// 8-byte cells; the V-cycle adds coarser grids of 1/8 the size each.
type mgParams struct {
	n          int // finest grid dimension (power of two)
	levels     int // V-cycle depth
	iterations int
}

var mgClasses = map[Class]mgParams{
	S: {n: 16, levels: 3, iterations: 40},
	W: {n: 32, levels: 4, iterations: 12},
	A: {n: 48, levels: 4, iterations: 3},
	B: {n: 64, levels: 5, iterations: 2},
	C: {n: 96, levels: 5, iterations: 2},
}

// mg is the multigrid dwarf (NPB MG): V-cycles over a hierarchy of 3D
// grids. The smoother is a 27-point stencil — affine neighbor loads with
// full memory-level parallelism — applied at every level, so the fine-grid
// sweeps stream like FT's passes while the coarse grids are cache-resident.
// MG is one of the six NPB programs the paper profiled; its contention
// falls between FT and CG.
type mg struct {
	class Class
	p     mgParams
	tune  Tuning
}

func init() {
	register("MG", "Structured grid: multigrid V-cycle on a 3D mesh",
		[]Class{S, W, A, B, C},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := mgClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload MG: no class %q", class)
			}
			return &mg{class: class, p: p, tune: tune}, nil
		})
}

func (m *mg) Name() string        { return "MG" }
func (m *mg) Class() Class        { return m.class }
func (m *mg) Description() string { return Describe("MG") }

// FootprintBytes sums the grid hierarchy (u and r arrays per level).
func (m *mg) FootprintBytes() uint64 {
	var total uint64
	n := m.p.n
	for l := 0; l < m.p.levels && n >= 2; l++ {
		cells := uint64(n) * uint64(n) * uint64(n)
		total += cells * 8 * 2
		n /= 2
	}
	return total
}

const (
	mgU = iota // solution grids, one region per level (level packed in bits)
	mgR        // residual grids
)

// gridBase returns the base address of array arr at V-cycle level l. Levels
// are spaced 4 GB apart inside the array's region.
func mgGridBase(arr, level int) uint64 {
	return base(arr) + uint64(level)<<32
}

// mgOp is one step of a V-cycle: a smoothing sweep or a grid transfer at
// a level, or the iteration barrier. lo and hi bound the thread's cells.
type mgOp struct {
	kind   int
	level  int
	n      int // the level's grid dimension (the fine one for transfers)
	lo, hi int
}

const (
	mgSmooth = iota
	mgRestrict
	mgProlong
	mgBarrier
)

// vcycle lists the steps of one V-cycle for thread t: smooth+restrict down
// the hierarchy, a few smoothing passes on the coarsest grid, then
// prolongate+smooth back up, and the barrier.
func (m *mg) vcycle(threads, t int) []mgOp {
	p := m.p
	var ops []mgOp
	smooth := func(level, n int) {
		lo, hi := partition(n*n*n, threads, t)
		ops = append(ops, mgOp{kind: mgSmooth, level: level, n: n, lo: lo, hi: hi})
	}
	transfer := func(kind, fineLevel, fineN int) {
		coarseN := fineN / 2
		lo, hi := partition(coarseN*coarseN*coarseN, threads, t)
		ops = append(ops, mgOp{kind: kind, level: fineLevel, n: fineN, lo: lo, hi: hi})
	}
	// Down-sweep: smooth then restrict at each level.
	n := p.n
	for l := 0; l < p.levels-1 && n >= 4; l++ {
		smooth(l, n)
		transfer(mgRestrict, l, n)
		n /= 2
	}
	// Bottom solve: a few smoothing passes on the coarsest grid.
	for pass := 0; pass < 2; pass++ {
		smooth(p.levels-1, n)
	}
	// Up-sweep: prolongate then smooth.
	for l := p.levels - 2; l >= 0; l-- {
		fineN := p.n >> l
		if fineN < 4 {
			continue
		}
		transfer(mgProlong, l, fineN)
		smooth(l, fineN)
	}
	return append(ops, mgOp{kind: mgBarrier})
}

// Streams partitions each level's cells across threads. One iteration is
// a V-cycle (see vcycle), ending with a barrier.
func (m *mg) Streams(threads int) []trace.Stream {
	iters := m.tune.scale(m.p.iterations)
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		cur := &mgCursor{thread: t, iters: iters, ops: m.vcycle(threads, t)}
		cur.i = cur.ops[0].lo
		streams[t] = trace.Fill(cur.fill)
	}
	return streams
}

// mgCursor is one thread's position in the V-cycle: iteration it, step op
// of ops, cell i.
type mgCursor struct {
	thread, iters int
	ops           []mgOp
	it, op, i     int
}

func (c *mgCursor) fill(buf []trace.Ref) ([]trace.Ref, bool) {
	for c.it < c.iters {
		if full(buf) {
			return buf, true
		}
		op := &c.ops[c.op]
		switch {
		case op.kind == mgBarrier:
			buf = appendBarrier(buf, c.thread, c.it)
			c.it, c.op, c.i = c.it+1, 0, c.ops[0].lo
		case c.i >= op.hi:
			c.op++
			c.i = c.ops[c.op].lo
		case op.kind == mgSmooth:
			buf = op.appendSmooth(buf, c.i)
			c.i++
		default:
			buf = op.appendTransfer(buf, c.i)
			c.i++
		}
	}
	return buf, false
}

// appendSmooth appends one cell of the 27-point stencil sweep: loads of the
// cell and of the planes above and below (affine), and a store of the
// updated cell. The row/column neighbors share cache lines with the
// central load and are omitted.
func (op *mgOp) appendSmooth(buf []trace.Ref, cell int) []trace.Ref {
	plane := uint64(op.n) * uint64(op.n) * 8
	ub := mgGridBase(mgU, op.level)
	addr := ub + uint64(cell)*8
	i := len(buf)
	buf = grow(buf, 4)
	buf[i] = trace.Ref{Addr: addr, Kind: trace.Load, Work: 4}
	buf[i+1] = trace.Ref{Addr: addr + plane, Kind: trace.Load, Work: 2}
	i += 2
	if addr >= ub+plane {
		buf[i] = trace.Ref{Addr: addr - plane, Kind: trace.Load, Work: 2}
		i++
	}
	buf[i] = trace.Ref{Addr: mgGridBase(mgR, op.level) + uint64(cell)*8, Kind: trace.Store, Work: 3}
	return buf[:i+1]
}

// appendTransfer appends coarse cell i of a move between the fine level and
// the next coarser one: restrict is a strided read of the fine grid and a
// sequential write of the coarse one, prolongate the reverse.
func (op *mgOp) appendTransfer(buf []trace.Ref, cell int) []trace.Ref {
	fineN := uint64(op.n)
	coarseN := op.n / 2
	// The coarse cell (x,y,z) maps to fine (2x,2y,2z).
	x := cell % coarseN
	y := (cell / coarseN) % coarseN
	z := cell / (coarseN * coarseN)
	fi := uint64(2*z)*fineN*fineN + uint64(2*y)*fineN + uint64(2*x)
	fine := mgGridBase(mgR, op.level) + fi*8
	coarse := mgGridBase(mgR, op.level+1) + uint64(cell)*8
	i := len(buf)
	buf = grow(buf, 2)
	if op.kind == mgRestrict {
		buf[i] = trace.Ref{Addr: fine, Kind: trace.Load, Work: 3}
		buf[i+1] = trace.Ref{Addr: coarse, Kind: trace.Store, Work: 1}
	} else {
		buf[i] = trace.Ref{Addr: coarse, Kind: trace.Load, Work: 1}
		buf[i+1] = trace.Ref{Addr: fine, Kind: trace.Store, Work: 3}
	}
	return buf
}

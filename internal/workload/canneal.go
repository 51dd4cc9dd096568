package workload

import (
	"fmt"

	"repro/internal/trace"
)

// cannealParams sizes the simulated-annealing netlist router per class:
// Elements netlist nodes of 64 bytes each, Moves swap evaluations per
// thread per temperature step.
type cannealParams struct {
	elements int
	moves    int
	steps    int
}

var cannealClasses = map[Class]cannealParams{
	SimSmall:  {elements: 8 << 10, moves: 2000, steps: 4},
	SimMedium: {elements: 16 << 10, moves: 4000, steps: 6},
	SimLarge:  {elements: 32 << 10, moves: 6000, steps: 8},
	Native:    {elements: 128 << 10, moves: 8000, steps: 8},
}

// canneal is PARSEC's cache-aware simulated annealing for chip routing: a
// swap evaluation loads two random netlist elements and chases their net
// pointers to compute the routing-cost delta. Almost every access is a
// data-dependent pointer dereference over a multi-megabyte netlist — the
// archetypal low-MLP random-access program, the opposite extreme from SP's
// affine streams. Contention stays moderate despite heavy traffic because
// the dependent chain self-throttles each thread.
type canneal struct {
	class Class
	p     cannealParams
	tune  Tuning
}

func init() {
	register("canneal", "Simulated annealing: pointer-chasing netlist routing",
		[]Class{SimSmall, SimMedium, SimLarge, Native},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := cannealClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload canneal: no class %q", class)
			}
			return &canneal{class: class, p: p, tune: tune}, nil
		})
}

func (c *canneal) Name() string        { return "canneal" }
func (c *canneal) Class() Class        { return c.class }
func (c *canneal) Description() string { return Describe("canneal") }

// FootprintBytes covers the 64-byte netlist elements.
func (c *canneal) FootprintBytes() uint64 {
	return uint64(c.p.elements) * 64
}

const cannealNetlist = 0

// Streams runs per-thread annealing moves: each move picks two pseudo-
// random elements (dependent loads — the address comes from the RNG state
// and the element's net pointers), follows two neighbour pointers from
// each, and commits the swap with two stores. Temperature steps end with a
// barrier, as the real program's synchronized temperature updates do.
func (c *canneal) Streams(threads int) []trace.Stream {
	steps := c.tune.scale(c.p.steps)
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		cur := &cannealCursor{p: c.p, thread: t, steps: steps, rng: uint64(seedFor("canneal", c.class, t)) | 1}
		streams[t] = trace.Fill(cur.fill)
	}
	return streams
}

// cannealCursor is one thread's position in the annealing schedule; move
// == p.moves means the step's barrier is next.
type cannealCursor struct {
	p             cannealParams
	thread, steps int
	step, move    int
	rng           uint64
}

// elem draws the next pseudo-random netlist element's address.
func (c *cannealCursor) elem() uint64 {
	c.rng = xorshift64(c.rng)
	return base(cannealNetlist) + (c.rng%uint64(c.p.elements))*64
}

func (c *cannealCursor) fill(buf []trace.Ref) ([]trace.Ref, bool) {
	for c.step < c.steps {
		if full(buf) {
			return buf, true
		}
		if c.move == c.p.moves {
			// Temperature update: synchronized across threads.
			buf = appendBarrier(buf, c.thread, c.step)
			c.step, c.move = c.step+1, 0
			continue
		}
		i := len(buf)
		buf = grow(buf, 8)
		// Load both swap candidates, chasing two of each element's net
		// pointers.
		for pick := 0; pick < 2; pick++ {
			buf[i] = trace.Ref{Addr: c.elem(), Kind: trace.Load, Dep: true, Work: 3}
			buf[i+1] = trace.Ref{Addr: c.elem(), Kind: trace.Load, Dep: true, Work: 2}
			buf[i+2] = trace.Ref{Addr: c.elem(), Kind: trace.Load, Dep: true, Work: 2}
			i += 3
		}
		// Commit the swap (stores drain via the write buffer).
		buf[i] = trace.Ref{Addr: c.elem(), Kind: trace.Store, Work: 4}
		buf[i+1] = trace.Ref{Addr: c.elem(), Kind: trace.Store, Work: 4}
		c.move++
	}
	return buf, false
}

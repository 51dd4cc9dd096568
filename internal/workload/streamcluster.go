package workload

import (
	"fmt"

	"repro/internal/trace"
)

// scParams sizes the streamcluster kernel per class, following the PARSEC
// input sets: points of dim 4-byte coordinates arriving in blocks, clustered
// against k candidate centers.
type scParams struct {
	points  int
	dim     int
	centers int
	passes  int // evaluation passes over the block (pgain iterations)
}

var scClasses = map[Class]scParams{
	SimSmall:  {points: 4 << 10, dim: 32, centers: 10, passes: 4},
	SimMedium: {points: 8 << 10, dim: 32, centers: 10, passes: 6},
	SimLarge:  {points: 16 << 10, dim: 32, centers: 15, passes: 8},
	Native:    {points: 64 << 10, dim: 32, centers: 20, passes: 8},
}

// sc is PARSEC's streamcluster: online k-median clustering of streaming
// points. Each pass reads every point (sequential, high MLP) and computes
// distances to the cache-resident centers — a compute-per-byte ratio high
// enough that, like x264, its large working set produces only moderate
// off-chip traffic. One of the four PARSEC programs the paper profiled.
type sc struct {
	class Class
	p     scParams
	tune  Tuning
}

func init() {
	register("streamcluster", "Online clustering: k-median of streaming points",
		[]Class{SimSmall, SimMedium, SimLarge, Native},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := scClasses[class]
			if !ok {
				return nil, fmt.Errorf("workload streamcluster: no class %q", class)
			}
			return &sc{class: class, p: p, tune: tune}, nil
		})
}

func (s *sc) Name() string        { return "streamcluster" }
func (s *sc) Class() Class        { return s.class }
func (s *sc) Description() string { return Describe("streamcluster") }

// FootprintBytes covers the point block, per-point assignment costs, and
// the centers.
func (s *sc) FootprintBytes() uint64 {
	return uint64(s.p.points)*uint64(s.p.dim)*4 + // coordinates
		uint64(s.p.points)*8 + // cost/assignment per point
		uint64(s.p.centers)*uint64(s.p.dim)*4
}

const (
	scPoints = iota
	scCosts
	scCenters
)

// Streams partitions the point block across threads. Each pass streams the
// thread's points (dim coordinates each), computes distances against every
// center (resident; one representative load per center), and updates the
// point's cost record; passes are separated by barriers, as pgain's
// evaluate-and-commit phases are in the real program.
func (s *sc) Streams(threads int) []trace.Stream {
	passes := s.tune.scale(s.p.passes)
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		cur := &scCursor{p: s.p, thread: t, passes: passes}
		cur.lo, cur.hi = partition(s.p.points, threads, t)
		cur.pt = cur.lo
		streams[t] = trace.Fill(cur.fill)
	}
	return streams
}

// scCursor is one thread's position: pass, then point pt of [lo, hi);
// pt == hi means the pass's barrier is next.
type scCursor struct {
	p              scParams
	thread, passes int
	lo, hi         int
	pass, pt       int
}

func (c *scCursor) fill(buf []trace.Ref) ([]trace.Ref, bool) {
	pointBytes := uint64(c.p.dim) * 4
	lines := int((pointBytes + 63) / 64)
	for c.pass < c.passes {
		if full(buf) {
			return buf, true
		}
		if c.pt == c.hi {
			buf = appendBarrier(buf, c.thread, c.pass)
			c.pass, c.pt = c.pass+1, c.lo
			continue
		}
		i := len(buf)
		buf = grow(buf, lines+c.p.centers+1)
		// Stream the point's coordinates line by line.
		baseAddr := base(scPoints) + uint64(c.pt)*pointBytes
		for l := 0; l < lines; l++ {
			buf[i+l] = trace.Ref{Addr: baseAddr + uint64(l)*64, Kind: trace.Load, Work: 6}
		}
		i += lines
		// Distance to each candidate center: centers stay cache-resident;
		// the distance computation dominates.
		for cn := 0; cn < c.p.centers; cn++ {
			buf[i+cn] = trace.Ref{Addr: base(scCenters) + uint64(cn)*pointBytes, Kind: trace.Load, Work: uint32(3 * c.p.dim)}
		}
		i += c.p.centers
		// Update the point's best cost (read-modify-write).
		buf[i] = trace.Ref{Addr: base(scCosts) + uint64(c.pt)*8, Kind: trace.Store, Work: 2}
		c.pt++
	}
	return buf, false
}

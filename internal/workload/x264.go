package workload

import (
	"fmt"

	"repro/internal/trace"
)

// x264Params sizes the H.264-style encoder per class, mirroring the PARSEC
// input sets (paper Table III) scaled by machine.CacheScale: the sim*
// inputs share one small resolution with growing frame counts; native has a
// much larger frame.
type x264Params struct {
	width, height int // luma plane in bytes (1 byte/pixel)
	frames        int
	candidates    int // motion-search positions per macroblock
}

var x264Classes = map[Class]x264Params{
	SimSmall:  {width: 160, height: 96, frames: 8, candidates: 8},
	SimMedium: {width: 160, height: 96, frames: 24, candidates: 8},
	SimLarge:  {width: 160, height: 96, frames: 64, candidates: 8},
	Native:    {width: 960, height: 544, frames: 8, candidates: 8},
}

// x264 is the PARSEC video encoder: per 16x16 macroblock, it loads the
// current block, runs a diamond motion search over candidate positions in
// the reference frame, and writes the encoded block. Reference-frame rows
// are shared between neighboring candidates and macroblocks, so even the
// native input — whose frames far exceed the LLC — touches each line only
// about once per frame: a large working set with few misses, the paper's
// explanation for x264's low contention.
type x264 struct {
	class Class
	p     x264Params
	tune  Tuning
}

func init() {
	register("x264", "Video encoding using H264 codec",
		[]Class{SimSmall, SimMedium, SimLarge, Native},
		func(class Class, tune Tuning) (Workload, error) {
			p, ok := x264Classes[class]
			if !ok {
				return nil, fmt.Errorf("workload x264: no class %q", class)
			}
			return &x264{class: class, p: p, tune: tune}, nil
		})
}

func (x *x264) Name() string        { return "x264" }
func (x *x264) Class() Class        { return x.class }
func (x *x264) Description() string { return Describe("x264") }

// FootprintBytes covers the reference frame, current frame, output plane
// and one in-flight input frame.
func (x *x264) FootprintBytes() uint64 {
	return uint64(x.p.width) * uint64(x.p.height) * 4
}

const (
	x264Ref = iota
	x264Cur
	x264Out
	x264Input
)

// pixAddr returns the address of pixel (px, py) in plane arr.
func (x *x264) pixAddr(arr, px, py int) uint64 {
	return base(arr) + uint64(py)*uint64(x.p.width) + uint64(px)
}

// diamond is the small-diamond candidate offset pattern around the
// co-located macroblock, extended by seeded pseudo-random refinements.
var diamond = [][2]int{{0, 0}, {-16, 0}, {16, 0}, {0, -16}, {0, 16}, {-8, -8}, {8, 8}, {-8, 8}, {8, -8}, {-24, 0}, {24, 0}, {0, -24}}

// Streams partitions macroblock rows across threads per frame (x264's
// wavefront-style intra-frame parallelism). Each frame first streams the
// thread's share of the incoming frame, then for every macroblock loads
// the 16 current-frame rows, evaluates `candidates` positions (16
// reference rows each, independent loads — SAD has full MLP), and stores
// 16 output rows; threads synchronize at the frame boundary.
func (x *x264) Streams(threads int) []trace.Stream {
	frames := x.tune.scale(x.p.frames)
	streams := make([]trace.Stream, threads)
	for t := 0; t < threads; t++ {
		cur := &x264Cursor{x: x, frames: frames, mbCols: x.p.width / 16, rng: uint64(seedFor("x264", x.class, t)) | 1}
		cur.lo, cur.hi = partition(x.p.height/16, threads, t)
		cur.startFrame()
		streams[t] = trace.Fill(cur.fill)
	}
	return streams
}

// x264Cursor is one thread's position in the encode: frame f, phase 0 the
// frame load (line off of loadBytes), phase 1 the macroblocks (mby, mbx),
// phase 2 the frame-boundary rendezvous. rng drives the motion-search
// refinements across all frames.
type x264Cursor struct {
	x              *x264
	frames, mbCols int
	lo, hi         int
	rng            uint64
	f, phase       int
	mby, mbx       int
	off, loadBytes uint64
	loadBase       uint64
}

// startFrame positions the cursor at the frame load of frame f.
func (c *x264Cursor) startFrame() {
	p := c.x.p
	// Per-frame encoding activity: the fraction of macroblocks with enough
	// motion to need fresh input data varies from frame to frame (P-frames
	// copy most blocks; scene changes touch everything), which spreads the
	// per-frame input bursts over a wide size range — the source of x264's
	// bursty traffic in paper Fig. 4.
	fh := xorshift64(uint64(c.f)*0x9E3779B97F4A7C15 + 17)
	activity := 10 + fh%86 // percent of active macroblocks
	// Frame load: before encoding starts, each thread streams the active
	// portion of its slice of the incoming frame from memory (fresh
	// addresses — a ring of input buffers), a contiguous burst whose size
	// varies with the frame's activity. This is the frame-copy phase of the
	// real encoder and the source of x264's bursty traffic for the
	// cache-resident sim* inputs (paper Fig. 4b).
	frameBytes := uint64(p.width) * uint64(p.height)
	sliceLo := uint64(c.lo) * 16 * uint64(p.width)
	sliceBytes := uint64(c.hi-c.lo) * 16 * uint64(p.width)
	c.loadBase = base(x264Input) + uint64(c.f)*frameBytes + sliceLo
	c.loadBytes = sliceBytes * activity / 100
	c.phase, c.off, c.mby, c.mbx = 0, 0, c.lo, 0
}

func (c *x264Cursor) fill(buf []trace.Ref) ([]trace.Ref, bool) {
	for c.f < c.frames {
		if full(buf) {
			return buf, true
		}
		switch {
		case c.phase == 0 && c.off < c.loadBytes:
			i := len(buf)
			buf = grow(buf, 1)
			buf[i] = trace.Ref{Addr: c.loadBase + c.off, Kind: trace.Load, Work: 1}
			c.off += 64
		case c.phase == 0:
			c.phase = 1
		case c.phase == 1 && c.mby < c.hi:
			buf = c.appendMacroblock(buf)
			if c.mbx++; c.mbx == c.mbCols {
				c.mby, c.mbx = c.mby+1, 0
			}
		case c.phase == 1:
			c.phase = 2
		default:
			// Frame boundary: threads synchronize before the next frame.
			i := len(buf)
			buf = grow(buf, 1)
			buf[i] = trace.Ref{Sync: true, Work: 20}
			c.f++
			c.startFrame()
		}
	}
	return buf, false
}

// appendMacroblock encodes macroblock (mbx, mby): load the current block
// (one row = 16 bytes, so rows share cache lines with neighbors), run the
// motion search over candidate positions, and write the encoded block.
func (c *x264Cursor) appendMacroblock(buf []trace.Ref) []trace.Ref {
	x, p := c.x, c.x.p
	bx, by := c.mbx*16, c.mby*16
	i := len(buf)
	buf = grow(buf, 16*(p.candidates+2))
	for r := 0; r < 16; r++ {
		buf[i+r] = trace.Ref{Addr: x.pixAddr(x264Cur, bx, by+r), Kind: trace.Load, Work: 2}
	}
	i += 16
	for cand := 0; cand < p.candidates; cand++ {
		var dx, dy int
		if cand < len(diamond) {
			dx, dy = diamond[cand][0], diamond[cand][1]
		} else {
			c.rng = xorshift64(c.rng)
			dx = int(c.rng%33) - 16
			dy = int((c.rng>>8)%33) - 16
		}
		cx, cy := clamp(bx+dx, 0, p.width-16), clamp(by+dy, 0, p.height-16)
		for r := 0; r < 16; r++ {
			buf[i+r] = trace.Ref{Addr: x.pixAddr(x264Ref, cx, cy+r), Kind: trace.Load, Work: 3}
		}
		i += 16
	}
	for r := 0; r < 16; r++ {
		buf[i+r] = trace.Ref{Addr: x.pixAddr(x264Out, bx, by+r), Kind: trace.Store, Work: 2}
	}
	return buf
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

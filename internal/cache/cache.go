// Package cache simulates set-associative cache memories and multi-level
// cache hierarchies. It filters the memory-reference streams produced by
// workloads so that only last-level misses become off-chip requests — the
// quantity whose contention behaviour the paper studies.
//
// Every cache replaces by exact LRU. Each set is an array of tags kept in
// recency order, most recently used first, so a hit, a fill and an
// eviction are one scan and one shift over a few adjacent words.
//
// The simulator is single-threaded (discrete-event), so caches are not
// safe for concurrent use and require no locking. Coherence is modeled
// only as far as the simulator's optional directory needs it: Invalidate
// drops a line that another socket wrote.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	// Name identifies the level in stats output ("L1", "L2", "L3").
	Name string
	// Size is the total capacity in bytes.
	Size uint64
	// Line is the cache-line size in bytes (power of two).
	Line uint64
	// Ways is the associativity. Size/(Line*Ways) must be a power of two.
	Ways int
	// Latency is the hit latency in cycles.
	Latency uint64
	// NextLinePrefetch, when set, inserts line+1 on every demand miss,
	// modeling a simple hardware prefetcher.
	NextLinePrefetch bool
}

// Stats counts the accesses observed by one cache.
type Stats struct {
	Accesses   uint64
	Misses     uint64
	Evictions  uint64
	Prefetches uint64
}

// MissRatio returns Misses/Accesses, or 0 for an untouched cache.
func (s Stats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is one set-associative cache level.
type Cache struct {
	// tags holds sets*ways entries, set-contiguous. An entry is line+1, so
	// 0 marks an invalid way. Each set is ordered by recency, most recent
	// first, and its invalid ways sit at the tail.
	tags     []uint64
	setMask  uint64
	ways     int
	lineBits uint
	stats    Stats
	cfg      Config
}

// New validates cfg and constructs the cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Line == 0 || bits.OnesCount64(cfg.Line) != 1 {
		return nil, fmt.Errorf("cache %s: line size %d must be a power of two", cfg.Name, cfg.Line)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache %s: ways %d must be positive", cfg.Name, cfg.Ways)
	}
	if cfg.Size == 0 || cfg.Size%(cfg.Line*uint64(cfg.Ways)) != 0 {
		return nil, fmt.Errorf("cache %s: size %d not divisible by line*ways", cfg.Name, cfg.Size)
	}
	sets := cfg.Size / (cfg.Line * uint64(cfg.Ways))
	if bits.OnesCount64(sets) != 1 {
		return nil, fmt.Errorf("cache %s: set count %d must be a power of two", cfg.Name, sets)
	}
	return &Cache{
		tags:     make([]uint64, int(sets)*cfg.Ways),
		setMask:  sets - 1,
		ways:     cfg.Ways,
		lineBits: uint(bits.TrailingZeros64(cfg.Line)),
		cfg:      cfg,
	}, nil
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Stats returns a copy of the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the access counters.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Access looks up addr, allocating on miss, and reports whether it hit.
// Stores allocate like loads (write-allocate); dirty-line writeback traffic
// is not modeled separately.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	c.stats.Accesses++
	if c.probe(line) {
		return true
	}
	c.missed(line)
	return false
}

// probe looks line up and leaves it most recently used in its set: a hit
// moves it to the front, a miss fills it there. The scan stops at the
// line, at the first invalid way or at the last way; everything before
// that point shifts one way back. A miss therefore takes the first invalid
// way, or evicts the least recently used way of a full set, which is what
// exact LRU with first-invalid fill does.
//
//simcheck:hotpath
func (c *Cache) probe(line uint64) bool {
	tag := line + 1
	set := c.set(line)
	w := 0
	for w < len(set)-1 && set[w] != tag && set[w] != 0 {
		w++
	}
	hit := set[w] == tag
	if !hit && set[w] != 0 {
		c.stats.Evictions++
	}
	for ; w > 0; w-- {
		set[w] = set[w-1]
	}
	set[0] = tag
	return hit
}

// missed books a demand miss on line, which probe has just filled, and
// runs the next-line prefetcher.
func (c *Cache) missed(line uint64) {
	c.stats.Misses++
	if c.cfg.NextLinePrefetch {
		c.stats.Prefetches++
		c.probe(line + 1)
	}
}

// set returns the ways of line's set.
func (c *Cache) set(line uint64) []uint64 {
	base := int(line&c.setMask) * c.ways
	return c.tags[base : base+c.ways]
}

// find returns the set holding addr's line and the line's way in it, or
// -1 when the line is not resident.
func (c *Cache) find(addr uint64) ([]uint64, int) {
	line := addr >> c.lineBits
	set := c.set(line)
	for w, t := range set {
		if t == line+1 {
			return set, w
		}
	}
	return set, -1
}

// Contains reports whether addr's line is resident without updating
// replacement state or counters.
func (c *Cache) Contains(addr uint64) bool {
	_, w := c.find(addr)
	return w >= 0
}

// Invalidate removes addr's line from the cache if present, returning
// whether a copy was dropped. Used by the coherence directory to model
// cross-socket invalidations; counters are not affected.
func (c *Cache) Invalidate(addr uint64) bool {
	set, w := c.find(addr)
	if w < 0 {
		return false
	}
	copy(set[w:], set[w+1:])
	set[len(set)-1] = 0
	return true
}

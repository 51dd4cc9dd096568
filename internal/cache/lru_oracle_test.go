package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// stampLRU is the reference model for Cache: exact LRU kept as per-way
// timestamps, filling the first invalid way and otherwise evicting the way
// with the oldest stamp. Cache keeps each set in recency order instead; the
// two must agree on every hit, every counter and every resident line.
type stampLRU struct {
	sets, ways int
	lineBits   uint
	prefetch   bool
	tags       []uint64
	valid      []bool
	lastUse    []uint64
	tick       uint64
	stats      Stats
}

func newStampLRU(cfg Config) *stampLRU {
	sets := int(cfg.Size / (cfg.Line * uint64(cfg.Ways)))
	n := sets * cfg.Ways
	lineBits := uint(0)
	for 1<<lineBits < cfg.Line {
		lineBits++
	}
	return &stampLRU{
		sets: sets, ways: cfg.Ways, lineBits: lineBits, prefetch: cfg.NextLinePrefetch,
		tags: make([]uint64, n), valid: make([]bool, n), lastUse: make([]uint64, n),
	}
}

func (m *stampLRU) access(addr uint64) bool {
	hit := m.touch(addr>>m.lineBits, false)
	if !hit && m.prefetch {
		m.touch(addr>>m.lineBits+1, true)
	}
	return hit
}

func (m *stampLRU) touch(line uint64, prefetch bool) bool {
	base := int(line%uint64(m.sets)) * m.ways
	if prefetch {
		m.stats.Prefetches++
	} else {
		m.stats.Accesses++
	}
	m.tick++
	for w := 0; w < m.ways; w++ {
		if i := base + w; m.valid[i] && m.tags[i] == line {
			m.lastUse[i] = m.tick
			return true
		}
	}
	if !prefetch {
		m.stats.Misses++
	}
	victim := -1
	for w := 0; w < m.ways; w++ {
		if !m.valid[base+w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = 0
		for w := 1; w < m.ways; w++ {
			if m.lastUse[base+w] < m.lastUse[base+victim] {
				victim = w
			}
		}
		m.stats.Evictions++
	}
	i := base + victim
	m.tags[i], m.valid[i], m.lastUse[i] = line, true, m.tick
	return false
}

func (m *stampLRU) way(addr uint64) int {
	line := addr >> m.lineBits
	base := int(line%uint64(m.sets)) * m.ways
	for w := 0; w < m.ways; w++ {
		if m.valid[base+w] && m.tags[base+w] == line {
			return base + w
		}
	}
	return -1
}

func (m *stampLRU) contains(addr uint64) bool { return m.way(addr) >= 0 }

func (m *stampLRU) invalidate(addr uint64) bool {
	i := m.way(addr)
	if i < 0 {
		return false
	}
	m.valid[i] = false
	return true
}

// TestCacheMatchesStampLRU is the differential test of the recency-ordered
// sets against the stamp model. Seeded random addresses over about twice a
// cache's capacity are mixed with invalidations, with and without the
// next-line prefetcher, for power-of-two and other associativities. After
// every step the hit, the counters and the residency of every line in the
// address range must match.
func TestCacheMatchesStampLRU(t *testing.T) {
	const sets, line, steps = 4, 64, 3000
	for _, ways := range []int{1, 2, 3, 10, 16} {
		for _, prefetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("ways=%d/prefetch=%v", ways, prefetch), func(t *testing.T) {
				cfg := Config{Name: "d", Size: sets * line * uint64(ways), Line: line, Ways: ways, NextLinePrefetch: prefetch}
				c := mustNew(t, cfg)
				m := newStampLRU(cfg)
				lines := uint64(2 * sets * ways)
				rng := rand.New(rand.NewSource(int64(ways)))
				for step := 0; step < steps; step++ {
					addr := uint64(rng.Int63n(int64(lines)))*line + uint64(rng.Intn(line))
					if rng.Intn(8) == 0 {
						if got, want := c.Invalidate(addr), m.invalidate(addr); got != want {
							t.Fatalf("step %d: Invalidate(%#x) = %v, model %v", step, addr, got, want)
						}
					} else if got, want := c.Access(addr), m.access(addr); got != want {
						t.Fatalf("step %d: Access(%#x) hit = %v, model %v", step, addr, got, want)
					}
					if c.Stats() != m.stats {
						t.Fatalf("step %d: stats %+v, model %+v", step, c.Stats(), m.stats)
					}
					for l := uint64(0); l <= lines; l++ {
						if got, want := c.Contains(l*line), m.contains(l*line); got != want {
							t.Fatalf("step %d: Contains(line %d) = %v, model %v", step, l, got, want)
						}
					}
				}
			})
		}
	}
}

// TestHierarchyMatchesStampLRU drives Hierarchy.Access, which probes its
// levels directly, against a walk over model levels: same hit level and
// latency, same per-level counters.
func TestHierarchyMatchesStampLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 10, 16} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			cfgs := []Config{
				{Name: "L1", Size: 2 * 64 * uint64(ways), Line: 64, Ways: ways, Latency: 2},
				{Name: "L2", Size: 8 * 64 * uint64(ways), Line: 64, Ways: ways, Latency: 9, NextLinePrefetch: true},
			}
			var levels []*Cache
			var models []*stampLRU
			for _, cfg := range cfgs {
				levels = append(levels, mustNew(t, cfg))
				models = append(models, newStampLRU(cfg))
			}
			h := NewHierarchy(levels...)
			rng := rand.New(rand.NewSource(int64(ways)))
			span := int64(16 * 64 * ways)
			for step := 0; step < 5000; step++ {
				addr := uint64(rng.Int63n(span))
				if rng.Intn(10) == 0 {
					h.Invalidate(addr)
					for _, m := range models {
						m.invalidate(addr)
					}
					continue
				}
				want := Result{HitLevel: -1, Miss: true}
				for i, m := range models {
					want.Latency += cfgs[i].Latency
					if m.access(addr) {
						want.HitLevel, want.Miss = i, false
						break
					}
				}
				if got := h.Access(addr); got != want {
					t.Fatalf("step %d: Access(%#x) = %+v, model %+v", step, addr, got, want)
				}
				for i, m := range models {
					if levels[i].Stats() != m.stats {
						t.Fatalf("step %d: %s stats %+v, model %+v", step, cfgs[i].Name, levels[i].Stats(), m.stats)
					}
				}
			}
		})
	}
}

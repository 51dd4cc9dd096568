package cache

import (
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func small(t *testing.T) *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return mustNew(t, Config{Name: "t", Size: 512, Line: 64, Ways: 2, Latency: 1})
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Size: 512, Line: 0, Ways: 2},         // zero line
		{Size: 512, Line: 48, Ways: 2},        // non-pow2 line
		{Size: 512, Line: 64, Ways: 0},        // zero ways
		{Size: 500, Line: 64, Ways: 2},        // size not divisible
		{Size: 64 * 3 * 2, Line: 64, Ways: 2}, // 3 sets, not pow2
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
	// Only the set count must be a power of two, not the ways.
	if _, err := New(Config{Size: 64 * 4 * 3, Line: 64, Ways: 3}); err != nil {
		t.Errorf("3-way cache rejected: %v", err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) {
		t.Error("second access missed")
	}
	if !c.Access(63) {
		t.Error("same-line access missed")
	}
	if c.Access(64) {
		t.Error("next line should cold-miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Misses != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t) // 4 sets, 2 ways; addresses mapping to set 0: multiples of 4*64=256.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a) // miss, fill
	c.Access(b) // miss, fill -> set full
	c.Access(a) // hit, a most recent
	c.Access(d) // miss, evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should survive")
	}
	if c.Contains(b) {
		t.Error("b should be evicted")
	}
	if !c.Contains(d) {
		t.Error("d should be resident")
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := small(t)
	c.Access(0)
	c.Access(256)
	before := c.Stats()
	c.Contains(0)
	c.Contains(999999)
	if c.Stats() != before {
		t.Error("Contains changed stats")
	}
	// Contains must not refresh LRU: touch b, then query a via Contains,
	// then fill; a must still be the LRU victim.
	c2 := small(t)
	c2.Access(0)   // a
	c2.Access(256) // b  (a is LRU)
	c2.Contains(0) // must NOT refresh a
	c2.Access(512) // evict LRU = a
	if c2.Contains(0) {
		t.Error("Contains refreshed LRU state")
	}
}

func TestResetStats(t *testing.T) {
	c := small(t)
	c.Access(0)
	c.ResetStats()
	if s := c.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("stats after reset = %+v", s)
	}
	if !c.Contains(0) {
		t.Error("ResetStats should not invalidate contents")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// 8 KB cache, 4 KB working set swept repeatedly: only cold misses.
	c := mustNew(t, Config{Name: "t", Size: 8192, Line: 64, Ways: 4, Latency: 1})
	for round := 0; round < 10; round++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			c.Access(addr)
		}
	}
	if m := c.Stats().Misses; m != 4096/64 {
		t.Errorf("misses = %d, want %d cold misses only", m, 4096/64)
	}
}

func TestWorkingSetExceedsCapacityThrashes(t *testing.T) {
	// 512B cache (8 lines), 4 KB cyclic sweep with LRU: every access misses
	// (classic LRU worst case for a cyclic pattern larger than capacity).
	c := small(t)
	total := 0
	for round := 0; round < 5; round++ {
		for addr := uint64(0); addr < 4096; addr += 64 {
			c.Access(addr)
			total++
		}
	}
	if m := c.Stats().Misses; m != uint64(total) {
		t.Errorf("misses = %d, want %d (full thrash)", m, total)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	c := mustNew(t, Config{Name: "t", Size: 8192, Line: 64, Ways: 4, Latency: 1, NextLinePrefetch: true})
	c.Access(0) // miss; prefetches line 1
	if !c.Contains(64) {
		t.Error("next line not prefetched")
	}
	if c.Access(64) == false {
		t.Error("prefetched line should hit")
	}
	s := c.Stats()
	if s.Prefetches != 1 {
		t.Errorf("prefetches = %d, want 1", s.Prefetches)
	}
	if s.Misses != 1 {
		t.Errorf("misses = %d; prefetch must not count as demand miss", s.Misses)
	}
	// Sequential sweep with prefetch should roughly halve demand misses.
	c2 := mustNew(t, Config{Name: "t", Size: 512, Line: 64, Ways: 2, Latency: 1, NextLinePrefetch: true})
	for addr := uint64(0); addr < 64*1024; addr += 64 {
		c2.Access(addr)
	}
	ratio := c2.Stats().MissRatio()
	if ratio > 0.55 {
		t.Errorf("sequential miss ratio with prefetch = %v, want ~0.5", ratio)
	}
}

func TestMissRatio(t *testing.T) {
	if (Stats{}).MissRatio() != 0 {
		t.Error("empty stats miss ratio should be 0")
	}
	s := Stats{Accesses: 4, Misses: 1}
	if s.MissRatio() != 0.25 {
		t.Errorf("ratio = %v", s.MissRatio())
	}
}

func TestHierarchyAccessPath(t *testing.T) {
	l1 := mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 2})
	l2 := mustNew(t, Config{Name: "L2", Size: 4096, Line: 64, Ways: 4, Latency: 10})
	h := NewHierarchy(l1, l2)
	if h.LLC() != l2 {
		t.Error("LLC should be the last level")
	}

	r := h.Access(0)
	if !r.Miss || r.HitLevel != -1 || r.Latency != 12 {
		t.Errorf("cold access = %+v", r)
	}
	r = h.Access(0)
	if r.Miss || r.HitLevel != 0 || r.Latency != 2 {
		t.Errorf("L1 hit = %+v", r)
	}
	// Evict line 0 from tiny L1 (set 0 holds multiples of 256) but keep in L2.
	h.Access(256)
	h.Access(512)
	r = h.Access(0)
	if r.Miss || r.HitLevel != 1 || r.Latency != 12 {
		t.Errorf("L2 hit = %+v", r)
	}
	st := h.Stats()
	if st.Accesses != 5 {
		t.Errorf("hierarchy accesses = %d", st.Accesses)
	}
	if st.LLCMisses != 3 {
		t.Errorf("LLC misses = %d, want 3 (cold 0, cold 256, cold 512)", st.LLCMisses)
	}
}

func TestHierarchySharedLevel(t *testing.T) {
	shared := mustNew(t, Config{Name: "LLC", Size: 8192, Line: 64, Ways: 4, Latency: 20})
	h1 := NewHierarchy(mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 1}), shared)
	h2 := NewHierarchy(mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 1}), shared)
	h1.Access(0) // fills shared
	r := h2.Access(0)
	if r.Miss {
		t.Error("second core should hit the shared LLC")
	}
	if r.HitLevel != 1 {
		t.Errorf("hit level = %d, want 1", r.HitLevel)
	}
}

func TestHierarchyResetStats(t *testing.T) {
	l1 := mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 1})
	h := NewHierarchy(l1)
	h.Access(0)
	h.ResetStats()
	if h.Stats().Accesses != 0 || l1.Stats().Accesses != 0 {
		t.Error("reset did not propagate")
	}
	if !l1.Contains(0) {
		t.Error("ResetStats should not invalidate contents")
	}
}

func TestEmptyHierarchy(t *testing.T) {
	h := NewHierarchy()
	if h.LLC() != nil {
		t.Error("empty hierarchy LLC should be nil")
	}
	r := h.Access(0)
	if !r.Miss {
		t.Error("empty hierarchy access should miss")
	}
}

// Property: for any address sequence, hits+misses == accesses and the cache
// never reports more resident lines than its capacity.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New(Config{Name: "p", Size: 2048, Line: 64, Ways: 4, Latency: 1})
		if err != nil {
			return false
		}
		hits := uint64(0)
		for _, a := range addrs {
			if c.Access(uint64(a)) {
				hits++
			}
		}
		s := c.Stats()
		if s.Accesses != uint64(len(addrs)) || s.Misses != s.Accesses-hits {
			return false
		}
		// Count resident lines among all possible lines in the address space.
		resident := 0
		for line := uint64(0); line < (1<<16)/64+2; line++ {
			if c.Contains(line * 64) {
				resident++
			}
		}
		return resident <= 2048/64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: immediately re-accessing any address is always a hit.
func TestRehitProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, err := New(Config{Name: "p", Size: 4096, Line: 64, Ways: 4, Latency: 1})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a))
			if !c.Access(uint64(a)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInvalidate(t *testing.T) {
	c := small(t)
	c.Access(0)
	if !c.Invalidate(32) { // same line as 0
		t.Error("Invalidate missed a resident line")
	}
	if c.Contains(0) {
		t.Error("line survived invalidation")
	}
	if c.Invalidate(0) {
		t.Error("double invalidation reported a copy")
	}
	// Counters untouched.
	if s := c.Stats(); s.Accesses != 1 || s.Misses != 1 {
		t.Errorf("stats changed: %+v", s)
	}
	// Next access misses again (a coherence miss).
	if c.Access(0) {
		t.Error("post-invalidation access should miss")
	}
}

func TestHierarchyInvalidate(t *testing.T) {
	l1 := mustNew(t, Config{Name: "L1", Size: 512, Line: 64, Ways: 2, Latency: 2})
	l2 := mustNew(t, Config{Name: "L2", Size: 4096, Line: 64, Ways: 4, Latency: 10})
	h := NewHierarchy(l1, l2)
	h.Access(0)
	if !h.Invalidate(0) {
		t.Error("hierarchy invalidate missed")
	}
	if l1.Contains(0) || l2.Contains(0) {
		t.Error("copy survived in some level")
	}
	if h.Invalidate(0) {
		t.Error("no copies should remain")
	}
}

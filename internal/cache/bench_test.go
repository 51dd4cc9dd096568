package cache

import (
	"math/rand"
	"testing"
)

func BenchmarkAccessLRU(b *testing.B) {
	c, err := New(Config{Name: "b", Size: 256 << 10, Line: 64, Ways: 8, Latency: 10})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mixed pattern: stride with periodic reuse.
		c.Access(uint64(i%100000) * 64)
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	l1, _ := New(Config{Name: "L1", Size: 2 << 10, Line: 64, Ways: 8, Latency: 4})
	l2, _ := New(Config{Name: "L2", Size: 16 << 10, Line: 64, Ways: 8, Latency: 10})
	l3, _ := New(Config{Name: "L3", Size: 768 << 10, Line: 64, Ways: 12, Latency: 38})
	h := NewHierarchy(l1, l2, l3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(uint64(i%200000) * 64)
	}
}

// BenchmarkHierarchyAccessAMD48 walks the AMDNUMA48 level shapes (2-, 16-
// and 10-way) with a stream that hits each level and misses the last: most
// references fall in a region that fits L1, fewer in ones that fit L2 and
// L3, and a few range over 64 MB.
func BenchmarkHierarchyAccessAMD48(b *testing.B) {
	l1, _ := New(Config{Name: "L1", Size: 4 << 10, Line: 64, Ways: 2, Latency: 3})
	l2, _ := New(Config{Name: "L2", Size: 32 << 10, Line: 64, Ways: 16, Latency: 12})
	l3, _ := New(Config{Name: "L3", Size: 640 << 10, Line: 64, Ways: 10, Latency: 40})
	h := NewHierarchy(l1, l2, l3)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		var span int64
		switch r := rng.Intn(100); {
		case r < 70:
			span = 2 << 10
		case r < 90:
			span = 24 << 10
		case r < 97:
			span = 512 << 10
		default:
			span = 64 << 20
		}
		addrs[i] = uint64(rng.Int63n(span))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(addrs[i&(len(addrs)-1)])
	}
}

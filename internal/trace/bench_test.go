package trace

import "testing"

func BenchmarkStrideStream(b *testing.B) {
	b.ReportAllocs()
	s := StrideSpec{Stride: 64, Count: 1 << 30}.Stream()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("exhausted")
		}
	}
}

func BenchmarkFillStream(b *testing.B) {
	next := uint64(0)
	s := Fill(func(buf []Ref) ([]Ref, bool) {
		for len(buf) < cap(buf)/2 {
			buf = append(buf, Ref{Addr: next * 64, Work: 1})
			next++
		}
		return buf, true
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Next(); !ok {
			b.Fatal("exhausted")
		}
	}
}

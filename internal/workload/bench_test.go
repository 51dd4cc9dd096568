package workload

import "testing"

// benchStreams measures reference-generation throughput per kernel.
func benchStreams(b *testing.B, name string, class Class) {
	w, err := NewTuned(name, class, Tuning{RefScale: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	produced := 0
	for produced < b.N {
		streams := w.Streams(4)
		for _, s := range streams {
			for produced < b.N {
				if _, ok := s.Next(); !ok {
					break
				}
				produced++
			}
		}
	}
}

func BenchmarkCGStream(b *testing.B)            { benchStreams(b, "CG", C) }
func BenchmarkSPStream(b *testing.B)            { benchStreams(b, "SP", C) }
func BenchmarkISStream(b *testing.B)            { benchStreams(b, "IS", C) }
func BenchmarkFTStream(b *testing.B)            { benchStreams(b, "FT", C) }
func BenchmarkEPStream(b *testing.B)            { benchStreams(b, "EP", C) }
func BenchmarkX264Stream(b *testing.B)          { benchStreams(b, "x264", Native) }
func BenchmarkMGStream(b *testing.B)            { benchStreams(b, "MG", C) }
func BenchmarkCannealStream(b *testing.B)       { benchStreams(b, "canneal", Native) }
func BenchmarkStreamclusterStream(b *testing.B) { benchStreams(b, "streamcluster", Native) }
func BenchmarkFluidanimateStream(b *testing.B)  { benchStreams(b, "fluidanimate", Native) }

package trace

import (
	"bytes"
	"reflect"
	"testing"
)

func TestFromSliceAndCollect(t *testing.T) {
	refs := []Ref{
		{Addr: 0, Kind: Load, Work: 1},
		{Addr: 64, Kind: Store, Work: 2},
		{Addr: 128, Kind: Load, Dep: true},
	}
	got := Collect(FromSlice(refs), 0)
	if len(got) != 3 {
		t.Fatalf("collected %d refs", len(got))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
	// Exhausted stream keeps returning false.
	s := FromSlice(refs)
	Collect(s, 0)
	if _, ok := s.Next(); ok {
		t.Error("exhausted stream returned a ref")
	}
}

func TestCollectMax(t *testing.T) {
	s := StrideSpec{Count: 100, Stride: 8}.Stream()
	got := Collect(s, 10)
	if len(got) != 10 {
		t.Errorf("Collect(max=10) returned %d", len(got))
	}
}

func TestCount(t *testing.T) {
	if n := Count(StrideSpec{Count: 57, Stride: 64}.Stream()); n != 57 {
		t.Errorf("Count = %d, want 57", n)
	}
	if n := Count(FromSlice(nil)); n != 0 {
		t.Errorf("Count(empty) = %d", n)
	}
}

func TestStrideAddresses(t *testing.T) {
	sp := StrideSpec{Base: 1000, Stride: 64, Count: 4, Kind: Store, Work: 3}
	refs := Collect(sp.Stream(), 0)
	want := []uint64{1000, 1064, 1128, 1192}
	for i, w := range want {
		if refs[i].Addr != w {
			t.Errorf("addr %d = %d, want %d", i, refs[i].Addr, w)
		}
		if refs[i].Kind != Store || refs[i].Work != 3 {
			t.Errorf("ref %d metadata wrong: %+v", i, refs[i])
		}
	}
}

// countFill returns a filler that appends n refs with consecutive
// addresses, per batches of at most batch refs.
func countFill(n, batch int) func([]Ref) ([]Ref, bool) {
	next := 0
	return func(buf []Ref) ([]Ref, bool) {
		for k := 0; k < batch && next < n; k++ {
			buf = append(buf, Ref{Addr: uint64(next) * 64})
			next++
		}
		return buf, next < n
	}
}

func TestFillStream(t *testing.T) {
	refs := Collect(Fill(countFill(10000, 300)), 0)
	if len(refs) != 10000 {
		t.Fatalf("fill produced %d refs", len(refs))
	}
	for i, r := range refs {
		if r.Addr != uint64(i)*64 {
			t.Fatalf("fill ref %d addr %d", i, r.Addr)
		}
	}
}

func TestFillEmptyBatchReportsMore(t *testing.T) {
	calls := 0
	s := Fill(func(buf []Ref) ([]Ref, bool) {
		calls++
		switch calls {
		case 1, 2: // nothing yet, but more follows
			return buf, true
		case 3:
			return append(buf, Ref{Addr: 7}), true
		default:
			return buf, false
		}
	})
	r, ok := s.Next()
	if !ok || r.Addr != 7 {
		t.Fatalf("Next = %+v, %v; want the ref after two empty batches", r, ok)
	}
	if _, ok := s.Next(); ok {
		t.Error("stream yielded a ref past its last batch")
	}
	if calls != 4 {
		t.Errorf("fill called %d times, want 4", calls)
	}
}

func TestFillFinalBatchCarriesRefs(t *testing.T) {
	s := Fill(func(buf []Ref) ([]Ref, bool) {
		return append(buf, Ref{Addr: 1}, Ref{Addr: 2}, Ref{Sync: true}), false
	})
	got := Collect(s, 0)
	if len(got) != 3 || got[0].Addr != 1 || got[1].Addr != 2 || !got[2].Sync {
		t.Fatalf("final batch delivered %+v", got)
	}
}

func TestFillExhaustedStaysExhausted(t *testing.T) {
	calls := 0
	fill := countFill(5, 5)
	s := Fill(func(buf []Ref) ([]Ref, bool) {
		calls++
		return fill(buf)
	})
	if n := Count(s); n != 5 {
		t.Fatalf("Count = %d, want 5", n)
	}
	for i := 0; i < 3; i++ {
		if r, ok := s.Next(); ok || r != (Ref{}) {
			t.Fatalf("Next after exhaustion = %+v, %v", r, ok)
		}
	}
	if calls != 1 {
		t.Errorf("fill called %d times after exhaustion, want 1 in total", calls)
	}
}

// TestFillReusesBuffer pins the no-allocation contract: once a filler's
// batches fit the buffer — after at most one growth for a batch larger
// than fillCap — draining allocates nothing.
func TestFillReusesBuffer(t *testing.T) {
	for _, batch := range []int{fillCap / 2, 3 * fillCap} {
		s := Fill(countFill(1<<30, batch))
		for i := 0; i < 2*batch; i++ { // warm: the first batches may grow the buffer
			s.Next()
		}
		if a := testing.AllocsPerRun(10, func() {
			for i := 0; i < 4*batch; i++ {
				if _, ok := s.Next(); !ok {
					t.Fatal("stream ended")
				}
			}
		}); a != 0 {
			t.Errorf("batch %d: %v allocs per drain of four batches, want 0", batch, a)
		}
	}
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

// TestBatchNextInterleaving pins that Batch and Next share one position:
// on every kind of stream, mixing them hands out each reference once, in
// order, and a drained stream stays drained for both.
func TestBatchNextInterleaving(t *testing.T) {
	const n = 2000
	want := Collect(StrideSpec{Base: 64, Stride: 64, Count: n, Work: 1}.Stream(), 0)
	var enc bytes.Buffer
	if _, err := Write(&enc, FromSlice(want)); err != nil {
		t.Fatal(err)
	}
	streams := map[string]func() Stream{
		"slice":  func() Stream { return FromSlice(want) },
		"stride": func() Stream { return StrideSpec{Base: 64, Stride: 64, Count: n, Work: 1}.Stream() },
		"fill": func() Stream {
			next := 0
			return Fill(func(buf []Ref) ([]Ref, bool) {
				for k := 0; k < 300 && next < n; k++ {
					next++
					buf = append(buf, Ref{Addr: uint64(next) * 64, Work: 1})
				}
				return buf, next < n
			})
		},
		"reader": func() Stream {
			s, err := NewReader(bytes.NewReader(enc.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, mk := range streams {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var got []Ref
			for i := 0; ; i++ {
				if i%3 == 2 {
					b := s.Batch()
					if len(b) == 0 {
						break
					}
					got = append(got, b...)
					continue
				}
				r, ok := s.Next()
				if !ok {
					break
				}
				got = append(got, r)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("interleaved Next/Batch delivered %d refs, want the %d in order", len(got), len(want))
			}
			for i := 0; i < 3; i++ {
				if b := s.Batch(); b != nil {
					t.Fatalf("Batch after exhaustion = %d refs, want nil", len(b))
				}
				if _, ok := s.Next(); ok {
					t.Fatal("Next after exhaustion returned a ref")
				}
			}
		})
	}
}

// TestBatchHandsOutBufferRest pins that Batch returns what is buffered
// before refilling: after one Next, the rest of the first fill, then the
// next fill whole.
func TestBatchHandsOutBufferRest(t *testing.T) {
	s := Fill(countFill(1000, 300))
	s.Next()
	if b := s.Batch(); len(b) != 299 || b[0].Addr != 64 {
		t.Fatalf("first Batch = %d refs from %+v, want the 299 left of the first fill", len(b), b[0])
	}
	if b := s.Batch(); len(b) != 300 || b[0].Addr != 300*64 {
		t.Fatalf("second Batch = %d refs, want the second fill of 300", len(b))
	}
}

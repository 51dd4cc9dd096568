package trace

import "testing"

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

func TestGenStream(t *testing.T) {
	s := Gen(func(emit func(Ref) bool) {
		for i := 0; i < 10000; i++ {
			if !emit(Ref{Addr: uint64(i) * 64}) {
				return
			}
		}
	})
	refs := Collect(s, 0)
	if len(refs) != 10000 {
		t.Fatalf("gen produced %d refs", len(refs))
	}
	for i, r := range refs {
		if r.Addr != uint64(i)*64 {
			t.Fatalf("gen ref %d addr %d", i, r.Addr)
		}
	}
}

func TestGenStreamStopEarly(t *testing.T) {
	produced := make(chan int, 1)
	s := Gen(func(emit func(Ref) bool) {
		n := 0
		for i := 0; i < 1_000_000; i++ {
			if !emit(Ref{Addr: uint64(i)}) {
				break
			}
			n++
		}
		produced <- n
	})
	// Consume a few then stop.
	for i := 0; i < 10; i++ {
		if _, ok := s.Next(); !ok {
			t.Fatal("stream ended early")
		}
	}
	StopAll(s)
	n := <-produced
	if n >= 1_000_000 {
		t.Errorf("generator ran to completion despite Stop (produced %d)", n)
	}
	// After stop the stream reports exhaustion.
	if _, ok := s.Next(); ok {
		t.Error("stopped stream yielded a ref")
	}
	// Stop is idempotent.
	StopAll(s)
}

func TestKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "unknown" {
		t.Error("unknown kind string")
	}
}

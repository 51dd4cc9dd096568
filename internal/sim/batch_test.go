package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// cyclingBatches hands out a slice's references in batches of 1, 3 and 7
// refs, in turn, so batches end at indices 0, 3 and 10 modulo 11.
type cyclingBatches struct {
	refs []trace.Ref
	pos  int
	k    int
}

func (s *cyclingBatches) Next() (trace.Ref, bool) {
	if s.pos == len(s.refs) {
		return trace.Ref{}, false
	}
	s.pos++
	return s.refs[s.pos-1], true
}

func (s *cyclingBatches) Batch() []trace.Ref {
	n := min([]int{1, 3, 7}[s.k%3], len(s.refs)-s.pos)
	if n == 0 {
		return nil
	}
	s.k++
	s.pos += n
	return s.refs[s.pos-n : s.pos]
}

// boundaryRefs builds thread t's references: prefix L1 hits, a barrier, a
// dependent off-chip miss, a run of zero-work hits longer than
// stepRefLimit, a second barrier, an independent miss and a few hits.
func boundaryRefs(t, prefix int) []trace.Ref {
	hot := uint64(t+1) << 20
	far := uint64(t+1) << 32
	var refs []trace.Ref
	for i := 0; i < prefix; i++ {
		refs = append(refs, trace.Ref{Addr: hot, Work: 1})
	}
	refs = append(refs, trace.Ref{Sync: true, Work: 3}, trace.Ref{Addr: far, Dep: true, Work: 2})
	for i := 0; i < stepRefLimit+800; i++ {
		refs = append(refs, trace.Ref{Addr: hot})
	}
	refs = append(refs, trace.Ref{Sync: true}, trace.Ref{Addr: far + 4096, Kind: trace.Store, Work: 1})
	for i := 0; i < 5; i++ {
		refs = append(refs, trace.Ref{Addr: hot, Work: 2})
	}
	return refs
}

// TestBatchBoundariesDoNotChangeResults pins that the simulator's result
// does not depend on how a stream cuts its batches. Shifting the
// references by a prefix of 0 to 10 puts every one of them, and so each
// barrier, each off-chip miss, the last reference of a capped step and the
// end of the stream, on the last slot of a batch in some run.
func TestBatchBoundariesDoNotChangeResults(t *testing.T) {
	for _, cfg := range []Config{
		{Spec: testSpec(), Threads: 2, Cores: 2},
		{Spec: testSpec(), Threads: 4, Cores: 2, quantum: 500},
	} {
		for prefix := 0; prefix < 11; prefix++ {
			batched := make([]trace.Stream, cfg.Threads)
			whole := make([]trace.Stream, cfg.Threads)
			for th := range batched {
				batched[th] = &cyclingBatches{refs: boundaryRefs(th, prefix)}
				whole[th] = trace.FromSlice(boundaryRefs(th, prefix))
			}
			got, err := Run(context.Background(), cfg, batched)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(context.Background(), cfg, whole)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("threads=%d prefix=%d: batched result differs\nbatched: %+v\nwhole:   %+v",
					cfg.Threads, prefix, got, want)
			}
			if got.Aborted || got.OffChipRequests == 0 {
				t.Fatalf("threads=%d prefix=%d: aborted=%v off-chip=%d", cfg.Threads, prefix, got.Aborted, got.OffChipRequests)
			}
		}
	}
}

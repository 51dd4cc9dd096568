package sim

import (
	"context"

	"testing"

	"repro/internal/trace"
)

// pingPongStreams builds two threads that alternately write and read one
// shared line, separated by barriers so the accesses interleave across
// sockets.
func pingPongStreams(rounds int) []trace.Stream {
	shared := uint64(1 << 30)
	mk := func(t int) trace.Stream {
		var refs []trace.Ref
		for i := 0; i < rounds; i++ {
			refs = append(refs, trace.Ref{Addr: shared, Kind: trace.Store, Work: 5})
			refs = append(refs, trace.Ref{Sync: true})
			refs = append(refs, trace.Ref{Addr: shared, Kind: trace.Load, Work: 5})
			refs = append(refs, trace.Ref{Sync: true})
		}
		_ = t
		return trace.FromSlice(refs)
	}
	return []trace.Stream{mk(0), mk(1)}
}

func TestCoherencePingPongProducesMisses(t *testing.T) {
	spec := testSpec() // 2 sockets x 2 cores
	// Threads 0 and 1 land on cores 0 and 1 with Cores=2... both socket 0.
	// Use Cores=4 with threads pinned round-robin: thread 0 -> core 0
	// (socket 0), thread 1 -> core 1 (socket 0). For cross-socket sharing,
	// use 2 threads on cores 0 and 2: that needs Cores=3+ so thread 1 maps
	// to core 1... simplest: 4 threads, but only threads 0 and 2 access the
	// shared line (on sockets 0 and 1).
	shared := uint64(1 << 30)
	mk := func(active bool, rounds int) trace.Stream {
		var refs []trace.Ref
		for i := 0; i < rounds; i++ {
			if active {
				refs = append(refs, trace.Ref{Addr: shared, Kind: trace.Store, Work: 5})
			} else {
				refs = append(refs, trace.Ref{Addr: 64 * uint64(i+2), Kind: trace.Load, Work: 5})
			}
			refs = append(refs, trace.Ref{Sync: true})
		}
		return trace.FromSlice(refs)
	}
	const rounds = 20
	streams := []trace.Stream{mk(true, rounds), mk(false, rounds), mk(true, rounds), mk(false, rounds)}

	with, err := Run(context.Background(), Config{Spec: spec, Threads: 4, Cores: 4, Coherence: true}, streams)
	if err != nil {
		t.Fatal(err)
	}
	streams = []trace.Stream{mk(true, rounds), mk(false, rounds), mk(true, rounds), mk(false, rounds)}
	without, err := Run(context.Background(), Config{Spec: spec, Threads: 4, Cores: 4}, streams)
	if err != nil {
		t.Fatal(err)
	}

	if with.Invalidations == 0 {
		t.Error("coherence run recorded no invalidations")
	}
	if without.Invalidations != 0 {
		t.Errorf("coherence off but %d invalidations", without.Invalidations)
	}
	// The ping-ponging line misses repeatedly only under coherence.
	if with.LLCMisses <= without.LLCMisses {
		t.Errorf("coherence misses %d should exceed non-coherent %d",
			with.LLCMisses, without.LLCMisses)
	}
}

func TestCoherenceSameSocketSharingIsFree(t *testing.T) {
	// Both sharers on socket 0: no cross-socket copies, no invalidations.
	spec := testSpec()
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 2, Cores: 2, Coherence: true},
		pingPongStreams(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidations != 0 {
		t.Errorf("same-socket sharing caused %d invalidations", res.Invalidations)
	}
}

func TestCoherenceReadSharingIsFree(t *testing.T) {
	// Cross-socket read-only sharing must not invalidate.
	spec := testSpec()
	shared := uint64(1 << 30)
	mk := func() trace.Stream {
		var refs []trace.Ref
		for i := 0; i < 20; i++ {
			refs = append(refs, trace.Ref{Addr: shared, Kind: trace.Load, Work: 5})
			refs = append(refs, trace.Ref{Sync: true})
		}
		return trace.FromSlice(refs)
	}
	streams := []trace.Stream{mk(), mk(), mk(), mk()}
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 4, Cores: 4, Coherence: true}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidations != 0 {
		t.Errorf("read sharing caused %d invalidations", res.Invalidations)
	}
	// One cold miss per socket LLC at most (plus none after).
	if res.LLCMisses > 4 {
		t.Errorf("read sharing missed %d times", res.LLCMisses)
	}
}

// TestCoherenceKeysOnLLCLine pins the directory's granule to the machine's
// cache line. With 128-byte lines, X and X+64 share a line: socket 1 reads
// X+64, then socket 0 stores X, which must drop socket 1's copy.
func TestCoherenceKeysOnLLCLine(t *testing.T) {
	spec := testSpec()
	for i := range spec.Levels {
		spec.Levels[i].Line = 128
	}
	x := uint64(1 << 30)
	idle := []trace.Ref{{Sync: true}, {Sync: true}}
	streams := []trace.Stream{
		trace.FromSlice([]trace.Ref{{Sync: true}, {Addr: x, Kind: trace.Store, Work: 1}, {Sync: true}}), // core 0, socket 0
		trace.FromSlice(idle), // core 1, socket 0
		trace.FromSlice([]trace.Ref{{Addr: x + 64, Kind: trace.Load, Work: 1}, {Sync: true}, {Sync: true}}), // core 2, socket 1
		trace.FromSlice(idle), // core 3, socket 1
	}
	res, err := Run(context.Background(), Config{Spec: spec, Threads: 4, Cores: 4, Coherence: true}, streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Invalidations != 1 {
		t.Errorf("store to a line another socket holds made %d invalidations, want 1", res.Invalidations)
	}
}

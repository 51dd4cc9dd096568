package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// Hand-encoded profile.proto messages (only the fields layerShares reads).
func pbVarint(num int, v uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(num)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(num int, payload []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(num)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}

func pbPacked(num int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(num, p)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// cannedProfile has one function per layer of interest plus an inlined
// location whose innermost frame is in the cache layer.
func cannedProfile(t *testing.T) []byte {
	t.Helper()
	names := []string{"",
		"repro/internal/cache.(*Cache).touch",         // 1
		"runtime.mallocgc",                            // 2
		"net/http.(*conn).serve",                      // 3
		"repro/internal/eventq.(*calendar).Pop",       // 4
		"repro/internal/sim.(*engine).step",           // 5
		"repro/internal/memctrl.(*Controller).Submit", // 6
		"repro/internal/trace.(*genStream).Next",      // 7
		"main.clientA",                                // 8
	}
	var msg []byte
	for id := 1; id < len(names); id++ {
		msg = append(msg, pbBytes(5, cat(pbVarint(1, uint64(id)), pbVarint(2, uint64(id))))...)
		msg = append(msg, pbBytes(4, cat(pbVarint(1, uint64(id)), pbBytes(4, pbVarint(1, uint64(id)))))...)
	}
	// Location 100: cache.touch inlined into sim.step; the first line is the
	// innermost frame.
	msg = append(msg, pbBytes(4, cat(pbVarint(1, 100), pbBytes(4, pbVarint(1, 1)), pbBytes(4, pbVarint(1, 5))))...)
	// Samples: leaf location first, values [count, nanoseconds].
	samples := []struct{ leaf, ns uint64 }{
		{1, 30}, {100, 10}, {2, 20}, {3, 5}, {4, 15}, {5, 10}, {6, 6}, {7, 3}, {8, 1},
	}
	for _, s := range samples {
		msg = append(msg, pbBytes(2, cat(pbPacked(1, s.leaf, 5), pbPacked(2, 1, s.ns)))...)
	}
	for _, s := range names {
		msg = append(msg, pbBytes(6, []byte(s))...)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestLayerSharesOfCannedProfile(t *testing.T) {
	shares, err := layerShares(cannedProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	const total = 100.0
	want := map[string]float64{
		"cache": 40 / total, "runtime": 20 / total, "other": 6 / total, "eventq": 15 / total,
		"sim": 10 / total, "memctrl": 6 / total, "workload": 3 / total,
		"runner": 0, "model": 0, "server": 0,
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("share %s = %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

func TestLayerSharesRejectsEmptyAndCorruptProfiles(t *testing.T) {
	if _, err := layerShares([]byte("not gzip")); err == nil {
		t.Error("corrupt profile accepted")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Close()
	if _, err := layerShares(buf.Bytes()); err == nil {
		t.Error("profile without samples accepted")
	}
}

func TestPackageOf(t *testing.T) {
	for sym, want := range map[string]string{
		"repro/internal/cache.(*Cache).touch": "repro/internal/cache",
		"runtime.mallocgc":                    "runtime",
		"internal/runtime/maps.(*Map).Get":    "internal/runtime/maps",
		"main.main":                           "main",
		"repro/internal/sim.Run.func1":        "repro/internal/sim",
	} {
		if got := packageOf(sym); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", sym, got, want)
		}
	}
}

package workload

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var updateIdentity = flag.Bool("update", false, "rewrite testdata/stream_identity.txt")

// identityTune and identityThreads fix the cases the stream-identity golden
// covers: every registered program and class at the smallest iteration
// count, split across one, three and eight threads.
var (
	identityTune    = Tuning{RefScale: 0.01}
	identityThreads = []int{1, 3, 8}
)

const identityFile = "stream_identity.txt"

// streamDigest drains s and returns its length and an FNV-64a over every
// reference's (Addr, Kind, Dep, Sync, Work), little-endian.
func streamDigest(s trace.Stream) (n int, sum uint64) {
	sum = 14695981039346656037 // FNV-64a offset basis
	for {
		r, ok := s.Next()
		if !ok {
			return n, sum
		}
		n++
		sum = fnvBytes(sum, r.Addr, 8)
		sum = fnvBytes(sum, uint64(r.Kind), 1)
		sum = fnvBytes(sum, b2u(r.Dep), 1)
		sum = fnvBytes(sum, b2u(r.Sync), 1)
		sum = fnvBytes(sum, uint64(r.Work), 4)
	}
}

// fnvBytes folds the low n bytes of v, little-endian, into FNV-64a state h.
func fnvBytes(h, v uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		h ^= v & 0xff
		h *= 1099511628211 // FNV-64 prime
		v >>= 8
	}
	return h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// identityTable renders one line per (program, class, threads, thread):
// the thread's reference count and stream digest.
func identityTable(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range Names() {
		for _, class := range ClassesFor(name) {
			w, err := NewTuned(name, class, identityTune)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range identityThreads {
				for th, s := range w.Streams(threads) {
					n, sum := streamDigest(s)
					fmt.Fprintf(&buf, "%s %s %d %d %d %016x\n", name, class, threads, th, n, sum)
				}
			}
		}
	}
	return buf.Bytes()
}

// TestStreamIdentity pins every kernel's per-thread reference sequence:
// any change to an address, kind, flag, work count or the number of
// references shows up as a differing line. Re-record an intended change
// with `go test -run TestStreamIdentity -update ./internal/workload`.
func TestStreamIdentity(t *testing.T) {
	got := identityTable(t)
	path := filepath.Join("testdata", identityFile)
	if *updateIdentity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := lines(want)
	gotLines := lines(got)
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d cases, fixture has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("got  %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
}

func lines(b []byte) []string {
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		out = append(out, strings.TrimSpace(sc.Text()))
	}
	return out
}

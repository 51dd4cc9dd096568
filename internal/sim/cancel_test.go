package sim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestRunCanceled verifies the typed cancellation error and its partial
// counters: a context canceled before the run ends stops the event loop
// within cancelEvery events of the first check and reports everything
// measured so far.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the run even starts
	const every = 64
	_, err := Run(ctx, Config{Spec: testSpec(), Threads: 2, Cores: 2, cancelEvery: every},
		memBoundStreams(2, 5000))
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("errors.Is(err, ErrCanceled) = false for %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err is %T, want *CanceledError", err)
	}
	// Bounded latency: the context was canceled before the first event, so
	// the loop must stop at the very first check — after exactly cancelEvery
	// dispatched events.
	if ce.Partial.Events == 0 || ce.Partial.Events > every {
		t.Errorf("partial events = %d, want 1..%d (cancellation latency bound)", ce.Partial.Events, every)
	}
	if !ce.Partial.Aborted {
		t.Error("partial result not marked Aborted")
	}
	if ce.DroppedEvents == 0 {
		t.Error("no pending events dropped; expected a drained queue")
	}
}

// TestRunCanceledObserved exercises the same cancellation path through the
// observer's drive loop and checks the run.cancel trace event is emitted.
func TestRunCanceledObserved(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf strings.Builder
	tracer := telemetry.NewTracer(&buf)
	_, err := Run(ctx, Config{
		Spec: testSpec(), Threads: 2, Cores: 2, cancelEvery: 64,
		Observe: &ObserveConfig{Interval: 500, Tracer: tracer},
	}, memBoundStreams(2, 5000))
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err is %T", err)
	}
	if ce.Partial.Events == 0 || ce.Partial.Events > 64+1 { // +1: the armed sampler tick may land in the window
		t.Errorf("partial events = %d, want within the check window", ce.Partial.Events)
	}
	if !strings.Contains(buf.String(), "run.cancel") {
		t.Errorf("tracer output missing run.cancel event:\n%s", buf.String())
	}
}

// TestRunUncancelableContextCompletes pins that a Background context (nil
// Done channel) takes the unchecked fast path and completes normally.
func TestRunUncancelableContextCompletes(t *testing.T) {
	res, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 2, Cores: 2},
		memBoundStreams(2, 50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Error("run aborted")
	}
}

// TestCancellationDoesNotPerturbCounters verifies that running with a
// live (but never canceled) context produces byte-identical counters to a
// Background run: the cancellation probe reads, never writes.
func TestCancellationDoesNotPerturbCounters(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 4, Cores: 2},
		memBoundStreams(4, 200))
	if err != nil {
		t.Fatal(err)
	}
	checked, err := Run(ctx, Config{Spec: testSpec(), Threads: 4, Cores: 2, cancelEvery: 8},
		memBoundStreams(4, 200))
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalCycles != checked.TotalCycles || base.Events != checked.Events ||
		base.OffChipRequests != checked.OffChipRequests || base.Makespan != checked.Makespan {
		t.Errorf("checked run diverged: base %+v vs checked %+v", base, checked)
	}
}

// TestRunReportsEveryInvalidField pins the ConfigError contract: Run
// reports every invalid field at once, not just the first. Three fields
// are set wrong; the nil stream slice cannot match Threads -1, so the
// Streams pseudo-field is reported alongside them.
func TestRunReportsEveryInvalidField(t *testing.T) {
	spec := testSpec()
	_, err := Run(context.Background(), Config{
		Spec:      spec,
		Threads:   -1,
		Cores:     spec.TotalCores() + 5,
		Placement: Placement(99),
	}, nil)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	if !errors.Is(err, ErrBadConfig) {
		t.Errorf("errors.Is(err, ErrBadConfig) = false for %v", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("err is %T, want *ConfigError", err)
	}
	var fields []string
	for _, f := range ce.Fields {
		fields = append(fields, f.Field)
	}
	if got, want := strings.Join(fields, ","), "Threads,Cores,Placement,Streams"; got != want {
		t.Errorf("reported fields %s, want %s: %v", got, want, err)
	}
}

// TestRunStreamMismatchError pins the Streams pseudo-field in the
// validation error.
func TestRunStreamMismatchError(t *testing.T) {
	_, err := Run(context.Background(), Config{Spec: testSpec(), Threads: 4, Cores: 2},
		memBoundStreams(2, 10))
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if !strings.Contains(err.Error(), "Streams") {
		t.Errorf("error does not name the Streams pseudo-field: %v", err)
	}
}

// cancelAfter cancels a run's context from inside the run, once the
// wrapped stream has handed out at least n references. The simulator
// consumes streams through Batch, so that is where it counts.
type cancelAfter struct {
	trace.Stream
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Batch() []trace.Ref {
	b := c.Stream.Batch()
	if c.n > 0 {
		if c.n -= len(b); c.n <= 0 {
			c.cancel()
		}
	}
	return b
}

// TestRunLeavesNoGoroutines pins that reference streams generate on the
// caller's goroutine: a real workload run to completion, or canceled
// midway with its streams half drained, leaves nothing running and
// nothing to stop. The count may drop (a goroutine an earlier test
// started can still be exiting), but it must not grow.
func TestRunLeavesNoGoroutines(t *testing.T) {
	w, err := workload.New("CG", workload.W)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Spec: machine.IntelUMA8(), Threads: 8, Cores: 8}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	streams := w.Streams(8)
	streams[0] = &cancelAfter{Stream: streams[0], n: 5000, cancel: cancel}
	if _, err := Run(ctx, cfg, streams); !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-run cancel: err = %v, want ErrCanceled", err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("after a canceled run: %d goroutines, want at most %d", n, before)
	}

	res, err := Run(context.Background(), cfg, w.Streams(8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted || res.Events == 0 {
		t.Errorf("complete run: aborted=%v events=%d", res.Aborted, res.Events)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("after a complete run: %d goroutines, want at most %d", n, before)
	}
}

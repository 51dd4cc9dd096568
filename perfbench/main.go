// Command perfbench is the repository's benchmark. It sweeps cold Fig. 5
// panels through the experiment runner and serves a closed-loop request
// mix through an in-process simserved stack, checks every output against
// perfbench/expected.json and in-process model calls, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on its last line of output.
//
// Run it from the repository root through perfbench/run.sh, which builds
// it first:
//
//	bash perfbench/run.sh --workload uma8-cg-c --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh record                  # re-record expected.json
//	bash perfbench/run.sh compare BASE.jsonl CAND.jsonl
//
// Every run also appends its result, stamped with provenance, to
// <results>/runs.jsonl; compare reads two such files.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// setupReps is how many times a run cold-starts the stack; setup_s is the
// median.
const setupReps = 11

func main() { os.Exit(realMain(os.Args[1:], os.Stdout)) }

func realMain(args []string, stdout io.Writer) int {
	if _, err := os.Stat(filepath.Join("internal", "sim")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return exitOn(record(stdout))
		case "standup":
			return exitOn(standup(args[1:]))
		case "compare":
			if len(args) != 3 {
				fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.jsonl CAND.jsonl")
				return 2
			}
			return exitOn(compare(stdout, args[1], args[2]))
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed of the serving mix (the panels are deterministic)")
	seconds := fs.Int("seconds", 20, "measured window in seconds")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	results := fs.String("results", defaultResults(), "directory of runs.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	exp, err := loadExpected()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	want, ok := exp[w.Name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: no recorded outputs for %s in %s\n", w.Name, expectedFile)
		return 2
	}
	b := &bench{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second, want: want, results: *results}
	rec, err := b.run(context.Background(), *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := appendRecord(*results, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: keep result:", err)
		return 1
	}
	printRecord(stdout, rec)
	return 0
}

// defaultResults is perfbench-results beside the binary, which run.sh
// builds into the checkout's build directory.
func defaultResults() string {
	exe, err := os.Executable()
	if err != nil {
		return filepath.Join(".bench_build", "perfbench-results")
	}
	return filepath.Join(filepath.Dir(exe), "perfbench-results")
}

func exitOn(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w       Workload
	seed    uint64
	seconds time.Duration
	want    Expected
	results string
	// attempted counts output checks; failures lists the failed ones.
	attempted int
	failures  []string
	failed    int
}

func (b *bench) fail(msgs ...string) {
	b.failed += len(msgs)
	b.failures = append(b.failures, msgs...)
}

// Record is one run's result as printed and as kept in runs.jsonl.
type Record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Provenance Provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Samples    map[string]int    `json:"samples"`
	Failures   []string          `json:"failures,omitempty"`
}

// window is one measured window: cold panels, then serving.
type window struct {
	panels     []panelOut
	a, b       clientStats
	serveS     float64
	peakHeapMB float64
	gcCycles   uint32
	gcPauseMs  float64
	sims       int
	// panelProf and serveProf are the CPU profiles of the two phases of a
	// traced window.
	panelProf, serveProf []byte
}

func (b *bench) window(ctx context.Context, in *instance, profile bool) (window, error) {
	var out window
	runtime.GC() // start every window from a collected heap
	peak := startHeapPeak()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var err error
	out.panelProf, err = profiled(profile, func() error { return b.panels(ctx, in, &out) })
	if err == nil {
		runtime.GC() // serve from a collected heap, not the panels' garbage
		out.serveProf, err = profiled(profile, func() error { return b.serve(ctx, in, &out) })
	}
	out.peakHeapMB = float64(peak.end()) / 1e6
	if err != nil {
		return window{}, err
	}
	runtime.ReadMemStats(&ms1)
	out.gcCycles = ms1.NumGC - ms0.NumGC
	out.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return out, nil
}

// profiled runs fn, under a CPU profile when on, and returns the profile.
func profiled(on bool, fn func() error) ([]byte, error) {
	if !on {
		return nil, fn()
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	return buf.Bytes(), err
}

// panels repeats cold panels for the workload's share of the window and
// checks each against the recorded outputs.
func (b *bench) panels(ctx context.Context, in *instance, out *window) error {
	start := time.Now()
	for i := 0; ; i++ {
		r := in.runner
		if i > 0 || !b.w.servesPanel() {
			r = newRunner(b.w.PanelScale)
		}
		p, err := runPanel(ctx, b.w, r)
		if err != nil {
			return err
		}
		b.attempted += len(p.runs) + 1
		b.fail(checkRuns(b.want, p.runs)...)
		if !sameMRE(b.want.ModelMREPct, p.mrePct) {
			b.fail(fmt.Sprintf("model_mre_pct %v, recorded %v", p.mrePct, b.want.ModelMREPct))
		}
		out.panels = append(out.panels, p)
		if r != in.runner {
			out.sims += p.sims
		}
		if time.Since(start) >= time.Duration(b.w.PanelShare*float64(b.seconds)) {
			return nil
		}
	}
}

// serve runs the serving phase for the rest of the window's length.
func (b *bench) serve(ctx context.Context, in *instance, out *window) error {
	start := time.Now()
	a, cb, err := serve(ctx, in, b.seed, max(minServe, time.Duration((1-b.w.PanelShare)*float64(b.seconds))))
	out.serveS = time.Since(start).Seconds()
	if err != nil {
		return err
	}
	out.a, out.b = a, cb
	b.attempted += a.attempted + cb.attempted
	b.failed += a.failed + cb.failed
	b.failures = append(append(b.failures, a.failures...), cb.failures...)
	done, _ := in.runner.Completed()
	out.sims += done
	return nil
}

// endToEnd reduces a window and the set-up times to the end-to-end metrics.
func (o window) endToEnd(setup []float64) *report {
	r := newReport(endToEnd)
	r.set("setup_s", quantileAt(setup, 0.5), len(setup))
	var sweeps, allocs []float64
	for _, p := range o.panels {
		sweeps = append(sweeps, p.sweepS)
		allocs = append(allocs, p.allocMB)
	}
	r.set("sweep_s", quantileAt(sweeps, 0.5), len(sweeps))
	r.set("alloc_mb", quantileAt(allocs, 0.5), len(allocs))
	r.set("peak_heap_mb", o.peakHeapMB, 1)
	r.set("model_mre_pct", o.panels[0].mrePct, len(o.panels))
	n := len(o.a.predictMs)
	r.set("serve.analytical_p50_ms", quantileAt(o.a.predictMs, 0.5), n)
	r.set("serve.analytical_p99_ms", quantileAt(o.a.predictMs, 0.99), n)
	r.set("serve.analytical_rps", float64(n+len(o.a.curveMs))/o.serveS, n+len(o.a.curveMs))
	r.set("serve.curve_p50_ms", quantileAt(o.a.curveMs, 0.5), len(o.a.curveMs))
	r.set("serve.sim_p50_ms", quantileAt(o.b.simMs, 0.5), len(o.b.simMs))
	r.set("serve.sim_answers", float64(len(o.b.simMs)), len(o.b.simMs))
	return r
}

// setup starts a fresh process of this binary setupReps times, each of
// which stands the stack up, answers /healthz and exits, and returns the
// wall time of each: the cold start a simserved-like process pays,
// package initialisation included. It then stands up the instance this
// run measures.
func (b *bench) setup() (*instance, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var times []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "standup", b.w.Name)
		cmd.Stderr = os.Stderr
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("set up %s: %w", b.w.Name, err)
		}
		times = append(times, time.Since(t).Seconds())
	}
	in, err := newInstance(b.w)
	if err != nil {
		return nil, nil, fmt.Errorf("set up %s: %w", b.w.Name, err)
	}
	return in, times, nil
}

// standup is the child side of setup.
func standup(args []string) error {
	if len(args) != 1 {
		return errors.New("usage: perfbench standup WORKLOAD")
	}
	w, err := workloadByName(args[0])
	if err != nil {
		return err
	}
	in, err := newInstance(w)
	if err != nil {
		return err
	}
	in.close()
	return nil
}

func (b *bench) run(ctx context.Context, traced bool) (Record, error) {
	prov, err := provenance()
	if err != nil {
		return Record{}, err
	}
	in, setup, err := b.setup()
	if err != nil {
		return Record{}, err
	}
	defer in.close()
	var rep *report
	defs := endToEnd
	if traced {
		defs = perLayer
		rep, err = b.tracedRun(ctx, in, prov)
	} else {
		var o window
		if o, err = b.window(ctx, in, false); err == nil {
			rep = o.endToEnd(setup)
		}
	}
	if err != nil {
		return Record{}, err
	}
	if miss := rep.missing(defs); len(miss) > 0 {
		return Record{}, fmt.Errorf("metrics not measured: %v", miss)
	}
	rec := Record{Workload: b.w.Name, Seed: b.seed, Seconds: b.seconds.Seconds(), Trace: traced, Provenance: prov}
	rec.Metrics, rec.Samples = rep.metrics, rep.samples
	rec.Attempted, rec.Failed, rec.Failures = b.attempted, b.failed, b.failures
	rec.Correct = b.failed == 0
	return rec, nil
}

// tracedRun measures a window under CPU profiles and then probes every
// layer from outside.
func (b *bench) tracedRun(ctx context.Context, in *instance, prov Provenance) (*report, error) {
	base, err := b.untracedBaseline(ctx, prov)
	if err != nil {
		return nil, err
	}
	o, err := b.window(ctx, in, true)
	if err != nil {
		return nil, err
	}
	rep := newReport(perLayer)
	for prefix, prof := range map[string][]byte{"host_share.": o.panelProf, "serve_share.": o.serveProf} {
		shares, err := layerShares(prof)
		if err != nil {
			return nil, err
		}
		for _, l := range layers {
			rep.set(prefix+l, shares[l], 1)
		}
	}
	traced := o.endToEnd([]float64{0})
	rep.set("trace.overhead_sweep_s", traced.metrics["sweep_s"].Value-base["sweep_s"], traced.samples["sweep_s"])
	rep.set("trace.overhead_analytical_p50_ms", traced.metrics["serve.analytical_p50_ms"].Value-base["serve.analytical_p50_ms"], traced.samples["serve.analytical_p50_ms"])
	if err := b.probe(ctx, in, o, traced, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// untracedBaseline returns the median sweep_s and analytical p50 of the
// untraced runs this binary already kept for the workload, or measures an
// untraced window on a stack of its own when there are none.
func (b *bench) untracedBaseline(ctx context.Context, prov Provenance) (map[string]float64, error) {
	recs, err := readRecords(filepath.Join(b.results, "runs.jsonl"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	vals := map[string][]float64{}
	for _, r := range recs {
		if r.Workload == b.w.Name && !r.Trace && r.Seconds == b.seconds.Seconds() && r.Provenance.Build == prov.Build {
			for _, k := range []string{"sweep_s", "serve.analytical_p50_ms"} {
				vals[k] = append(vals[k], r.Metrics[k].Value)
			}
		}
	}
	if len(vals["sweep_s"]) == 0 {
		in, err := newInstance(b.w)
		if err != nil {
			return nil, err
		}
		defer in.close()
		o, err := b.window(ctx, in, false)
		if err != nil {
			return nil, err
		}
		rep := o.endToEnd([]float64{0})
		for _, k := range []string{"sweep_s", "serve.analytical_p50_ms"} {
			vals[k] = []float64{rep.metrics[k].Value}
		}
	}
	return map[string]float64{
		"sweep_s":                 quantileAt(vals["sweep_s"], 0.5),
		"serve.analytical_p50_ms": quantileAt(vals["serve.analytical_p50_ms"], 0.5),
	}, nil
}

// printRecord writes the human-readable table and then, as the last line,
// the JSON result.
func printRecord(w io.Writer, rec Record) {
	p := rec.Provenance
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%g trace=%v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "provenance: rev=%s tree=%s build=%s go=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		p.GitRev, p.Tree, p.Build, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Metrics[d.Name]
		line := fmt.Sprintf("  %-34s %16.6f %-8s n=%-6d", d.Name, m.Value, d.Unit, rec.Samples[d.Name])
		if rec.Trace {
			line += fmt.Sprintf(" moves %s on %s", d.Moves, d.On)
		}
		fmt.Fprintln(w, line)
	}
	failedFrac := float64(rec.Failed) / float64(max(rec.Attempted, 1))
	fmt.Fprintf(w, "  %-34s %16.6f %-8s n=%-6d\n", "failed_frac", failedFrac, "fraction", rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Fprintln(w, string(out))
}

// appendRecord keeps one result in dir/runs.jsonl.
func appendRecord(dir string, rec Record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, _ := json.Marshal(rec)
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a runs.jsonl file.
func readRecords(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Record
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// record runs every workload's panel once and rewrites expected.json.
func record(w io.Writer) error {
	exp := map[string]Expected{}
	for _, wl := range workloads {
		p, err := runPanel(context.Background(), wl, newRunner(wl.PanelScale))
		if err != nil {
			return err
		}
		e := Expected{Runs: map[string]string{}, ModelMREPct: p.mrePct}
		cores := make([]int, 0, len(p.runs))
		for n := range p.runs {
			cores = append(cores, n)
		}
		sort.Ints(cores)
		for _, n := range cores {
			e.Runs[fmt.Sprint(n)] = digest(p.runs[n])
		}
		exp[wl.Name] = e
		fmt.Fprintf(w, "%s: %d runs, model_mre_pct %.4f, sweep %.2fs\n", wl.Name, len(cores), p.mrePct, p.sweepS)
	}
	return saveExpected(exp)
}

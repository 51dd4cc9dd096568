package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// probe fills the per-layer metrics of a traced run, timing calls into
// each layer's public functions after the profiled window. traced holds
// the window's end-to-end figures.
func (b *bench) probe(ctx context.Context, in *instance, o window, traced, rep *report) error {
	w := b.w
	spec := w.spec()

	// Counts from the window, read before the probes below add to the
	// server's and the model's counters.
	rep.set("model.declines", float64(o.b.declines), 1)
	rep.set("server.shed", float64(in.srvReg.Counter("simserved_rejected_total").Value()), 1)
	rep.set("server.tier_analytical", float64(len(o.a.predictMs)+len(o.a.curveMs)+o.b.bAnalytic), 1)
	rep.set("server.tier_simulation", float64(len(o.b.simMs)), 1)
	rep.set("runtime.gc_cycles", float64(o.gcCycles), 1)
	rep.set("runtime.gc_pause_ms", o.gcPauseMs, 1)
	rep.set("runner.runs", float64(o.sims), len(o.panels))

	runs := o.panels[len(o.panels)-1].runs
	cores := make([]int, 0, len(runs))
	for n := range runs {
		cores = append(cores, n)
	}
	sort.Ints(cores)
	var req, rowHits, wait, events, offChip, remote uint64
	util := 0.0
	for _, res := range runs {
		for _, s := range res.MCStats {
			req += s.Requests
			rowHits += s.RowHits
			wait += s.TotalWait
			util = max(util, s.Utilization(res.Makespan, spec.MC.Channels))
		}
		events += res.Events
		offChip += res.OffChipRequests
		remote += res.RemoteRequests
	}
	rep.set("memctrl.requests", float64(req), len(runs))
	rep.set("memctrl.avg_wait_cycles", float64(wait)/float64(max(req, 1)), len(runs))
	rep.set("memctrl.utilization_max", util, len(runs))
	rep.set("memctrl.row_hit_ratio", float64(rowHits)/float64(max(req, 1)), len(runs))
	rep.set("eventq.events", float64(events), len(runs))
	rep.set("sim.remote_frac", float64(remote)/float64(max(offChip, 1)), len(runs))

	// sim: every run of the panel again, one at a time, each sim.Run timed.
	wl, err := workload.NewTuned(w.Panel.Program, w.Panel.Class, workload.Tuning{RefScale: w.PanelScale})
	if err != nil {
		return err
	}
	threads := spec.TotalCores()
	var serial []float64
	var simNs, instr, serialEvents float64
	for _, n := range cores {
		streams := wl.Streams(threads)
		t := time.Now()
		res, err := sim.Run(ctx, sim.Config{Spec: spec, Threads: threads, Cores: n}, streams)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("serial run n=%d: %w", n, err)
		}
		b.attempted++
		if got, want := digest(res), b.want.Runs[strconv.Itoa(n)]; got != want {
			b.fail(fmt.Sprintf("serial run cores=%d digest %s, recorded %s", n, got, want))
		}
		serial = append(serial, d.Seconds())
		simNs += float64(d.Nanoseconds())
		instr += float64(res.Instructions)
		serialEvents += float64(res.Events)
	}
	var serialS float64
	for _, s := range serial {
		serialS += s
	}
	rep.set("sim.run_p50_s", quantileAt(serial, 0.5), len(serial))
	rep.set("sim.ns_per_event", simNs/serialEvents, len(serial))
	rep.set("sim.minstr_per_s", instr/(simNs/1e9)/1e6, len(serial))
	rep.set("runner.parallel_eff", serialS/(float64(jobs())*traced.metrics["sweep_s"].Value), len(serial))

	// workload: drain the streams of a full-machine run.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	refs := 0
	for _, s := range wl.Streams(threads) {
		refs += trace.Count(s)
	}
	gen := time.Since(t)
	runtime.ReadMemStats(&m1)
	rep.set("workload.refs", float64(refs), threads)
	rep.set("workload.gen_ns_per_ref", float64(gen.Nanoseconds())/float64(refs), threads)
	rep.set("workload.alloc_b_per_ref", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(refs), threads)

	// cache: replay the same references through the machine's hierarchies.
	cs, err := replay(spec, wl.Streams(threads))
	if err != nil {
		return err
	}
	rep.set("cache.accesses", float64(cs.accesses), threads)
	rep.set("cache.ns_per_access", float64(cs.busy.Nanoseconds())/float64(cs.accesses), threads)
	rep.set("cache.l1_hit_ratio", float64(cs.l1Hits)/float64(cs.accesses), threads)
	rep.set("cache.llc_miss_ratio", float64(cs.misses)/float64(cs.accesses), threads)

	return b.probeServing(ctx, in, traced, rep)
}

// probeServing times the model and the HTTP handlers on the warmed pair.
func (b *bench) probeServing(ctx context.Context, in *instance, traced, rep *report) error {
	w := b.w
	spec := w.spec()

	sp := w.Served
	cold := model.New(newRunner(w.ServeScale))
	t := time.Now()
	if _, err := cold.Warm(ctx, spec, sp.Program, sp.Class); err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	rep.set("model.warm_s", time.Since(t).Seconds(), 1)

	plan := anchors(spec)
	meas := make([]core.Measurement, len(plan))
	for i, n := range plan {
		res, ok := in.runner.Cached(in.runner.KeyFor(spec, sp.Program, sp.Class, n))
		if !ok {
			return fmt.Errorf("anchor n=%d not cached", n)
		}
		meas[i] = core.Measurement{Cores: n, Cycles: float64(res.TotalCycles), LLCMisses: float64(res.LLCMisses)}
	}
	const fits = 2000
	t = time.Now()
	for i := 0; i < fits; i++ {
		if _, err := core.Fit(experiments.ModelKindFor(spec), spec.Sockets, spec.CoresPerSocket, meas, core.Options{}); err != nil {
			return fmt.Errorf("fit: %w", err)
		}
	}
	rep.set("model.fit_us", float64(time.Since(t).Microseconds())/fits, fits)

	var answerable []int
	for n := 1; n <= spec.TotalCores(); n++ {
		if _, reason := in.pred.Analytical(spec, sp.Program, sp.Class, n); reason == "" {
			answerable = append(answerable, n)
		}
	}
	const lookups = 200000
	t = time.Now()
	for i := 0; i < lookups; i++ {
		in.pred.Analytical(spec, sp.Program, sp.Class, answerable[i%len(answerable)])
	}
	rep.set("model.analytical_ns", float64(time.Since(t).Nanoseconds())/lookups, lookups)
	all := experiments.FullSweepCounts(spec)
	const curves = 20000
	t = time.Now()
	for i := 0; i < curves; i++ {
		in.pred.AnalyticalCurve(spec, sp.Program, sp.Class, all)
	}
	rep.set("model.curve_ns", float64(time.Since(t).Nanoseconds())/curves, curves)

	h := in.srv.Handler()
	predict, _ := json.Marshal(api.PredictRequest{Machine: w.Machine, Program: sp.Program, Class: string(sp.Class), Cores: answerable[len(answerable)-1]})
	const predicts, curveCalls = 20000, 2000
	predictUs, err := handlerP50(h, api.PathPredict, predict, predicts)
	if err != nil {
		return err
	}
	rep.set("server.predict_handler_us", predictUs, predicts)
	curve, _ := json.Marshal(api.CurveRequest{Machine: w.Machine, Program: sp.Program, Class: string(sp.Class), Cores: answerable})
	curveUs, err := handlerP50(h, api.PathCurve, curve, curveCalls)
	if err != nil {
		return err
	}
	rep.set("server.curve_handler_us", curveUs, curveCalls)
	p50 := traced.metrics["serve.analytical_p50_ms"].Value * 1000
	rep.set("server.http_overhead_us", p50-predictUs, traced.samples["serve.analytical_p50_ms"])
	return nil
}

// handlerP50 calls the handler directly on a recorder n times and returns
// the median call time in microseconds.
func handlerP50(h http.Handler, path string, body []byte, n int) (float64, error) {
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		us = append(us, float64(time.Since(t).Nanoseconds())/1e3)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("%s handler: status %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	return quantileAt(us, 0.5), nil
}

// cacheStats is the outcome of replaying references through a machine's
// cache hierarchies.
type cacheStats struct {
	accesses, l1Hits, misses uint64
	// busy is the time spent inside Hierarchy.Access only.
	busy time.Duration
}

// replay feeds thread t's references to core t's hierarchy, taking the
// threads round robin a chunk at a time so shared levels see interleaved
// traffic. Stream generation happens outside the timed part.
func replay(spec machine.Spec, streams []trace.Stream) (cacheStats, error) {
	m, err := machine.Build(spec, eventq.New(eventq.Calendar))
	if err != nil {
		return cacheStats{}, err
	}
	var st cacheStats
	buf := make([]uint64, 0, 4096)
	live := len(streams)
	done := make([]bool, len(streams))
	for live > 0 {
		for t, s := range streams {
			if done[t] {
				continue
			}
			buf = buf[:0]
			for len(buf) < cap(buf) {
				r, ok := s.Next()
				if !ok {
					done[t] = true
					live--
					break
				}
				if !r.Sync {
					buf = append(buf, r.Addr)
				}
			}
			h := m.Hierarchies[t%len(m.Hierarchies)]
			start := time.Now()
			for _, addr := range buf {
				res := h.Access(addr)
				if res.HitLevel == 0 {
					st.l1Hits++
				}
				if res.Miss {
					st.misses++
				}
			}
			st.busy += time.Since(start)
			st.accesses += uint64(len(buf))
		}
	}
	return st, nil
}

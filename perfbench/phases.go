package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// minServe is the shortest serving phase a window runs, however long its
// panels took.
const minServe = 3 * time.Second

// jobs is the runner's worker count: one per host CPU.
func jobs() int { return runtime.NumCPU() }

// instance is one in-process simserved stack on a loopback listener.
type instance struct {
	w        Workload
	runner   *experiments.Runner
	pred     *model.Predictor
	srv      *server.Server
	modelReg *telemetry.Registry
	srvReg   *telemetry.Registry
	hs       *http.Server
	base     string
	served   chan error
}

// newRunner returns a cold runner at the given workload scale.
func newRunner(scale float64) *experiments.Runner {
	r := experiments.NewRunner(workload.Tuning{RefScale: scale})
	r.Jobs = jobs()
	return r
}

// newInstance stands up the stack — runner, predictor, server, listener —
// and waits for its first /healthz answer.
func newInstance(w Workload) (*instance, error) {
	in := &instance{
		w:        w,
		runner:   newRunner(w.ServeScale),
		modelReg: telemetry.NewRegistry(),
		srvReg:   telemetry.NewRegistry(),
		served:   make(chan error, 1),
	}
	in.pred = model.New(in.runner)
	in.pred.Metrics = in.modelReg
	in.srv = server.New(server.Config{Predictor: in.pred, Metrics: in.srvReg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	in.base = "http://" + ln.Addr().String()
	in.hs = &http.Server{Handler: in.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { in.served <- in.hs.Serve(ln) }()
	resp, err := http.Get(in.base + api.PathHealthz)
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// close stops the server and waits until its serve loop has returned.
func (in *instance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.hs.Shutdown(ctx) // a timeout leaves Serve returned all the same
	<-in.served
}

// panelOut is one cold Fig. 5 panel.
type panelOut struct {
	sweepS  float64
	allocMB float64
	mrePct  float64
	// runs holds every simulated run of the panel (anchor plan and
	// validation sweep), keyed by active cores.
	runs map[int]sim.Result
	sims int
}

// runPanel sweeps one Fig. 5 panel on r, which must be cold, the way the
// experiments CLI does: fit plan and validation sweep submitted together
// through ModelVsMeasurement.
func runPanel(ctx context.Context, w Workload, r *experiments.Runner) (panelOut, error) {
	spec := w.spec()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fig, err := r.ModelVsMeasurement(ctx, spec, w.Panel.Program, w.Panel.Class, w.counts(), core.Options{})
	sweep := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return panelOut{}, fmt.Errorf("panel %s: %w", w.Name, err)
	}
	out := panelOut{
		sweepS:  sweep.Seconds(),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		mrePct:  fig.Validation.MeanRelErr * 100,
		runs:    map[int]sim.Result{},
	}
	for _, n := range append(anchors(spec), w.counts()...) {
		res, ok := r.Cached(r.KeyFor(spec, w.Panel.Program, w.Panel.Class, n))
		if !ok {
			return panelOut{}, fmt.Errorf("panel %s: run n=%d missing from the runner cache", w.Name, n)
		}
		out.runs[n] = res
	}
	out.sims, _ = r.Completed()
	return out, nil
}

// heapPeak samples the live heap every few milliseconds until stopped.
type heapPeak struct {
	stop chan struct{}
	done chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak in bytes.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	return <-h.done
}

// clientStats is what the serving clients saw.
type clientStats struct {
	predictMs  []float64 // client A analytical predicts
	curveMs    []float64 // client A batched curves
	simMs      []float64 // client B simulation-tier answers
	bAnalytic  int       // client B answers the refitted analytical tier gave
	attempted  int
	failed     int
	failures   []string
	ownDecline int // client B's in-process checks that the tier declines
	// declines is how many queries the analytical tier declined while the
	// clients ran, not counting the benchmark's own checks.
	declines int
}

func (c *clientStats) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// serve warms the served pair and runs the closed-loop two-client mix
// against the instance for d. Client A asks the analytical tier about the
// served pair; client B asks for cold keys drawn from the workload's pool
// without replacement, in an order that only the seed decides.
func serve(ctx context.Context, in *instance, seed uint64, d time.Duration) (clientStats, clientStats, error) {
	w := in.w
	spec := w.spec()
	if _, err := in.pred.Warm(ctx, spec, w.Served.Program, w.Served.Class); err != nil {
		return clientStats{}, clientStats{}, fmt.Errorf("warm %s: %w", w.Name, err)
	}
	// The served ω of every answerable core count, from an in-process
	// call; each answer the server gives is checked against it.
	want := map[int]float64{}
	for n := 1; n <= spec.TotalCores(); n++ {
		if pred, reason := in.pred.Analytical(spec, w.Served.Program, w.Served.Class, n); reason == "" {
			want[n] = pred.Omega
		}
	}
	if len(want) < 2 {
		return clientStats{}, clientStats{}, fmt.Errorf("serve %s: only %d analytically answerable core counts", w.Name, len(want))
	}
	declines := in.modelReg.Counter("model_declines_total")
	before := declines.Value()
	end := time.Now().Add(d)
	var a, b clientStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); a = clientA(in, want, rand.New(rand.NewPCG(seed, 0xA)), end) }()
	go func() { defer wg.Done(); b = clientB(in, rand.New(rand.NewPCG(seed, 0xB)), end) }()
	wg.Wait()
	b.declines = int(declines.Value()-before) - b.ownDecline
	return a, b, nil
}

// httpClient returns a client with its own connection pool, so each
// closed-loop client keeps one connection of its own.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute}
}

// post sends one JSON request and decodes a 200 answer into out.
func post(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, api.ContentTypeJSON, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// clientA sends a seeded mix of four predicts to one batched curve, all on
// the warmed pair, and checks every ω and tier.
func clientA(in *instance, want map[int]float64, rng *rand.Rand, end time.Time) clientStats {
	w := in.w
	c := httpClient()
	defer c.CloseIdleConnections()
	cores := make([]int, 0, len(want))
	for n := range want {
		cores = append(cores, n)
	}
	slices.Sort(cores)
	predictBody := map[int][]byte{}
	for _, n := range cores {
		predictBody[n], _ = json.Marshal(api.PredictRequest{Machine: w.Machine, Program: w.Served.Program, Class: string(w.Served.Class), Cores: n})
	}
	var st clientStats
	for time.Now().Before(end) {
		st.attempted++
		if rng.IntN(5) > 0 {
			n := cores[rng.IntN(len(cores))]
			var resp api.PredictResponse
			t := time.Now()
			err := post(c, in.base+api.PathPredict, predictBody[n], &resp)
			ms := float64(time.Since(t).Nanoseconds()) / 1e6
			switch {
			case err != nil:
				st.fail("A predict n=%d: %v", n, err)
			case resp.Tier != api.TierAnalytical || resp.Omega != want[n]:
				st.fail("A predict n=%d: tier %s omega %v, want analytical %v", n, resp.Tier, resp.Omega, want[n])
			default:
				st.predictMs = append(st.predictMs, ms)
			}
			continue
		}
		k := 2 + rng.IntN(len(cores)-1)
		pick := slices.Clone(cores)
		rng.Shuffle(len(pick), func(i, j int) { pick[i], pick[j] = pick[j], pick[i] })
		pick = pick[:k]
		slices.Sort(pick)
		body, _ := json.Marshal(api.CurveRequest{Machine: w.Machine, Program: w.Served.Program, Class: string(w.Served.Class), Cores: pick})
		var resp api.CurveResponse
		t := time.Now()
		err := post(c, in.base+api.PathCurve, body, &resp)
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		if err != nil {
			st.fail("A curve %v: %v", pick, err)
			continue
		}
		ok := len(resp.Points) == len(pick)
		for i := 0; ok && i < len(pick); i++ {
			p := resp.Points[i]
			ok = p.Cores == pick[i] && p.Tier == api.TierAnalytical && p.Omega == want[p.Cores]
		}
		if !ok {
			st.fail("A curve %v: points %+v do not match the in-process analytical answers", pick, resp.Points)
			continue
		}
		st.curveMs = append(st.curveMs, ms)
	}
	return st
}

// poolKeys lists client B's cold keys in seed order.
func poolKeys(w Workload, rng *rand.Rand) []experiments.RunItem {
	var keys []experiments.RunItem
	for _, set := range w.Pool {
		spec := preset(set.Machine)
		for _, p := range set.Pairs {
			for n := 1; n <= spec.TotalCores(); n++ {
				keys = append(keys, experiments.RunItem{Spec: spec, Program: p.Program, Class: p.Class, Cores: n})
			}
		}
	}
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// thinkTime is client B's pause between an answer and its next request.
// It bounds B to 40 requests a second, so a serving phase never exhausts
// the pool and B's load does not depend on how fast its keys simulate.
const thinkTime = 25 * time.Millisecond

// clientB sends predicts for cold keys one at a time. Before each it asks
// the predictor in process whether the analytical tier would answer (a
// pool pair is refitted once its anchors are all cached), and checks that
// the server answered from that tier with the ω that tier implies.
func clientB(in *instance, rng *rand.Rand, end time.Time) clientStats {
	c := httpClient()
	defer c.CloseIdleConnections()
	var st clientStats
	for i, k := range poolKeys(in.w, rng) {
		if i > 0 {
			time.Sleep(thinkTime)
		}
		if !time.Now().Before(end) {
			break
		}
		st.attempted++
		pre, reason := in.pred.Analytical(k.Spec, k.Program, k.Class, k.Cores)
		if reason != "" {
			st.ownDecline++
		}
		body, _ := json.Marshal(api.PredictRequest{Machine: k.Spec.Name, Program: k.Program, Class: string(k.Class), Cores: k.Cores})
		var resp api.PredictResponse
		t := time.Now()
		err := post(c, in.base+api.PathPredict, body, &resp)
		ms := float64(time.Since(t).Nanoseconds()) / 1e6
		if err != nil {
			st.fail("B predict %s.%s n=%d: %v", k.Program, k.Class, k.Cores, err)
			continue
		}
		if reason == "" {
			if resp.Tier != api.TierAnalytical || resp.Omega != pre.Omega {
				st.fail("B predict %s.%s n=%d: tier %s omega %v, want analytical %v", k.Program, k.Class, k.Cores, resp.Tier, resp.Omega, pre.Omega)
				continue
			}
			st.bAnalytic++
			continue
		}
		wantOmega, err := simOmega(in.runner, k)
		if resp.Tier != api.TierSimulation || err != nil || resp.Omega != wantOmega {
			st.fail("B predict %s.%s n=%d: tier %s omega %v, want simulation %v (%v)", k.Program, k.Class, k.Cores, resp.Tier, resp.Omega, wantOmega, err)
			continue
		}
		st.simMs = append(st.simMs, ms)
	}
	return st
}

// simOmega is ω(n) of a simulated key from the runner's cached counters.
func simOmega(r *experiments.Runner, k experiments.RunItem) (float64, error) {
	res, ok := r.Cached(r.KeyFor(k.Spec, k.Program, k.Class, k.Cores))
	base, okBase := r.Cached(r.KeyFor(k.Spec, k.Program, k.Class, 1))
	if !ok || !okBase {
		return 0, errors.New("run not cached after a simulation-tier answer")
	}
	return core.Omega(float64(res.TotalCycles), float64(base.TotalCycles)), nil
}

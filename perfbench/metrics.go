package main

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two equal); the end-to-end
// bounds live there.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Moves names the end-to-end metric a per-layer metric should move,
	// and On the workloads where it should move most.
	Moves string
	On    string
}

// endToEnd are the untraced metrics: what a user of the simulator, the
// experiment runner or simserved sees. Every workload reports all of them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sweep_s", Unit: "s", Better: "lower"},
	{Name: "alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "model_mre_pct", Unit: "%", Better: "lower"},
	{Name: "serve.analytical_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.analytical_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.analytical_rps", Unit: "req/s", Better: "higher"},
	{Name: "serve.curve_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sim_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.sim_answers", Unit: "count", Better: "higher"},
}

const (
	onMemBound = "uma8-cg-c, amd48-sp-c"
	onServe    = "serve-uma8"
	onAll      = "every workload"
)

// perLayer are the traced metrics, each with the end-to-end metric it
// should move and where.
var perLayer = []metricDef{
	{"workload.refs", "count", "lower", "sweep_s", "amd48-cg-w"},
	{"workload.gen_ns_per_ref", "ns", "lower", "sweep_s", "amd48-cg-w (little on amd48-sp-c)"},
	{"workload.alloc_b_per_ref", "B", "lower", "alloc_mb", "amd48-cg-w"},
	{"cache.accesses", "count", "lower", "sweep_s", "amd48-cg-w, uma8-cg-c"},
	{"cache.ns_per_access", "ns", "lower", "sweep_s", "amd48-cg-w, uma8-cg-c"},
	{"cache.l1_hit_ratio", "ratio", "higher", "sweep_s", "amd48-cg-w, uma8-cg-c"},
	{"cache.llc_miss_ratio", "ratio", "lower", "sweep_s", "amd48-cg-w, uma8-cg-c"},
	{"memctrl.requests", "count", "lower", "sweep_s", onMemBound + "; none on amd48-cg-w"},
	{"memctrl.avg_wait_cycles", "cycles", "lower", "sweep_s", onMemBound},
	{"memctrl.utilization_max", "ratio", "lower", "sweep_s", onMemBound},
	{"memctrl.row_hit_ratio", "ratio", "higher", "sweep_s", onMemBound},
	{"eventq.events", "count", "lower", "sweep_s", onMemBound},
	{"sim.run_p50_s", "s", "lower", "sweep_s, serve.sim_p50_ms", "every sim workload; serve-uma8 client B"},
	{"sim.ns_per_event", "ns", "lower", "sweep_s, serve.sim_p50_ms", onAll},
	{"sim.minstr_per_s", "Minstr/s", "higher", "sweep_s, serve.sim_p50_ms", onAll},
	{"sim.remote_frac", "ratio", "lower", "sweep_s", "amd48-sp-c"},
	{"host_share.cache", "ratio", "lower", "sweep_s", onAll},
	{"host_share.memctrl", "ratio", "lower", "sweep_s", onMemBound},
	{"host_share.eventq", "ratio", "lower", "sweep_s", onMemBound},
	{"host_share.sim", "ratio", "lower", "sweep_s", onAll},
	{"host_share.workload", "ratio", "lower", "sweep_s", "amd48-cg-w"},
	{"host_share.runner", "ratio", "lower", "sweep_s", onAll},
	{"host_share.model", "ratio", "lower", "sweep_s", onAll},
	{"host_share.server", "ratio", "lower", "sweep_s", onAll},
	{"host_share.runtime", "ratio", "lower", "alloc_mb, sweep_s", "amd48-cg-w"},
	{"host_share.other", "ratio", "lower", "sweep_s", onAll},
	{"serve_share.cache", "ratio", "lower", "serve.sim_p50_ms", onAll},
	{"serve_share.memctrl", "ratio", "lower", "serve.sim_p50_ms", onAll},
	{"serve_share.eventq", "ratio", "lower", "serve.sim_p50_ms", onAll},
	{"serve_share.sim", "ratio", "lower", "serve.sim_p50_ms", onAll},
	{"serve_share.workload", "ratio", "lower", "serve.sim_p50_ms", onAll},
	{"serve_share.runner", "ratio", "lower", "serve.sim_p50_ms", onAll},
	{"serve_share.model", "ratio", "lower", "serve.analytical_p50_ms, serve.curve_p50_ms", onServe},
	{"serve_share.server", "ratio", "lower", "serve.analytical_p50_ms, serve.analytical_rps", onServe},
	{"serve_share.runtime", "ratio", "lower", "serve.analytical_p99_ms", onServe},
	{"serve_share.other", "ratio", "lower", "serve.analytical_p50_ms, serve.analytical_rps", onServe},
	{"runner.runs", "count", "higher", "sweep_s", onAll},
	{"runner.parallel_eff", "ratio", "higher", "sweep_s", "uma8-cg-c"},
	{"model.warm_s", "s", "lower", "sweep_s", onServe},
	{"model.fit_us", "us", "lower", "sweep_s", onServe},
	{"model.analytical_ns", "ns", "lower", "serve.analytical_p50_ms", onServe},
	{"model.curve_ns", "ns", "lower", "serve.curve_p50_ms", onServe},
	{"model.declines", "count", "lower", "serve.sim_answers", onServe},
	{"server.predict_handler_us", "us", "lower", "serve.analytical_p50_ms, serve.analytical_rps", onServe},
	{"server.curve_handler_us", "us", "lower", "serve.curve_p50_ms", onServe},
	{"server.http_overhead_us", "us", "lower", "serve.analytical_p50_ms", onServe},
	{"server.shed", "count", "lower", "serve.sim_answers", onServe},
	{"server.tier_analytical", "count", "higher", "serve.analytical_rps", onServe},
	{"server.tier_simulation", "count", "higher", "serve.sim_answers", onServe},
	{"runtime.gc_cycles", "count", "lower", "alloc_mb, sweep_s, serve.analytical_p99_ms", "amd48-cg-w, serve-uma8"},
	{"runtime.gc_pause_ms", "ms", "lower", "serve.analytical_p99_ms", "amd48-cg-w, serve-uma8"},
	{"trace.overhead_sweep_s", "s", "lower", "sweep_s", onAll},
	{"trace.overhead_analytical_p50_ms", "ms", "lower", "serve.analytical_p50_ms", onAll},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metric values with the sample count behind each.
type report struct {
	defs    map[string]metricDef
	metrics map[string]metric
	samples map[string]int
}

func newReport(defs []metricDef) *report {
	r := &report{defs: map[string]metricDef{}, metrics: map[string]metric{}, samples: map[string]int{}}
	for _, d := range defs {
		r.defs[d.Name] = d
	}
	return r
}

// set records a value and the number of samples it was reduced from.
func (r *report) set(name string, v float64, n int) {
	d, ok := r.defs[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: d.Unit}
	r.samples[name] = n
}

// missing lists declared metrics that were never set.
func (r *report) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := r.metrics[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

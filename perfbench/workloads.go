package main

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/workload"
)

// Workload is one named benchmark input. Every workload runs the same
// phases — stand up a simserved stack, sweep cold Fig. 5 panels, then
// serve a closed-loop two-client mix — and the fields below choose what
// each phase runs and how much of the window it takes.
type Workload struct {
	Name    string
	Machine string
	// Panel is the program.class the panel sweeps at PanelScale
	// (workload RefScale); Step selects CoarseSweepCounts(step), 0 every
	// core count.
	Panel      pair
	PanelScale float64
	Step       int
	// PanelShare is the share of the measured window spent repeating cold
	// panels (at least one runs); serving then runs for the rest of the
	// window's length, at least minServe, however long the panels took.
	PanelShare float64
	// Served is the pair client A asks the analytical tier about, on a
	// serving instance at ServeScale. When it is the panel's pair at the
	// panel's scale, the first panel runs on the instance's runner and
	// warms it.
	Served     pair
	ServeScale float64
	// Pool lists the machines and program.class pairs whose cold keys
	// (every core count of the machine, at ServeScale) client B draws
	// from.
	Pool []poolSet
}

type poolSet struct {
	Machine string
	Pairs   []pair
}

type pair struct {
	Program string
	Class   workload.Class
}

// cheap lists the program.class pairs client B's pools draw from: each
// simulates in 1–60 ms at scale 0.1 or below on every preset.
var cheap = []pair{
	{"CG", workload.S}, {"CG", workload.W}, {"EP", workload.S}, {"EP", workload.W},
	{"FT", workload.S}, {"FT", workload.W}, {"MG", workload.S}, {"MG", workload.W},
	{"SP", workload.S}, {"SP", workload.W}, {"IS", workload.S},
	{"fluidanimate", workload.SimSmall}, {"fluidanimate", workload.SimMedium},
	{"streamcluster", workload.SimSmall}, {"streamcluster", workload.SimMedium},
	{"x264", workload.SimSmall}, {"x264", workload.SimMedium},
}

// cheapExcept returns cheap without the given pairs.
func cheapExcept(drop ...pair) []pair {
	var out []pair
	for _, p := range cheap {
		if !slices.Contains(drop, p) {
			out = append(out, p)
		}
	}
	return out
}

var (
	cgC = pair{"CG", workload.C}
	cgW = pair{"CG", workload.W}
	cgS = pair{"CG", workload.S}
	spC = pair{"SP", workload.C}
	spS = pair{"SP", workload.S}

	// Client B's pools hold 1200–1300 keys, more than a serving phase
	// reaches. At scale 0.1 the AMDNUMA48 fits of CG.S and SP.S have no
	// saturation point, which the server cannot encode (see README.md),
	// so that pool leaves them out.
	poolIntel = []poolSet{{"IntelUMA8", cheap}, {"IntelNUMA24", cheap}, {"AMDNUMA48", cheapExcept(cgS, spS)}}
	poolAMD   = []poolSet{{"AMDNUMA48", cheapExcept(cgW)}, {"IntelNUMA24", cheap}, {"IntelUMA8", cheap}}
)

// workloads is the benchmark's workload table; BENCHMARK.json names the
// same four and says why each was chosen.
var workloads = []Workload{
	{Name: "uma8-cg-c", Machine: "IntelUMA8", Panel: cgC, PanelScale: 0.1, Step: 0, PanelShare: 0.5,
		Served: cgC, ServeScale: 0.1, Pool: poolIntel},
	// The analytical tier declines SP.C at scale 0.02, and CG.W at scale 4
	// fits with no saturation point (ω stays flat), which the server cannot
	// encode; both AMD workloads serve CG.W at scale 0.02 instead.
	{Name: "amd48-sp-c", Machine: "AMDNUMA48", Panel: spC, PanelScale: 0.02, Step: 16, PanelShare: 0.5,
		Served: cgW, ServeScale: 0.02, Pool: poolAMD},
	{Name: "amd48-cg-w", Machine: "AMDNUMA48", Panel: cgW, PanelScale: 4, Step: 16, PanelShare: 0.5,
		Served: cgW, ServeScale: 0.02, Pool: poolAMD},
	{Name: "serve-uma8", Machine: "IntelUMA8", Panel: cgC, PanelScale: 0.1, Step: 4, PanelShare: 0.25,
		Served: cgC, ServeScale: 0.1, Pool: poolIntel},
}

// servesPanel reports whether the serving instance hosts the panel's
// pair at the panel's scale.
func (w Workload) servesPanel() bool {
	return w.Served == w.Panel && w.ServeScale == w.PanelScale
}

// anchors is the model's measurement plan for the machine.
func anchors(spec machine.Spec) []int {
	return core.PaperInputs(experiments.ModelKindFor(spec), spec.Sockets, spec.CoresPerSocket)
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w Workload) spec() machine.Spec { return preset(w.Machine) }

// preset returns a machine preset the workload table names.
func preset(name string) machine.Spec {
	spec, err := machine.ByName(name)
	if err != nil {
		panic(err) // the table names presets only
	}
	return spec
}

// counts returns the validation sweep of the panel.
func (w Workload) counts() []int {
	spec := w.spec()
	if w.Step == 0 {
		return experiments.FullSweepCounts(spec)
	}
	return experiments.CoarseSweepCounts(spec, w.Step)
}

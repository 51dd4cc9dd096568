package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the same workloads and
// metrics this program reports.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, file, table []metricDef) {
		if len(file) != len(table) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(file), len(table))
		}
		for i := range file {
			f, d := file[i], table[i]
			if f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
				t.Errorf("%s %d: %+v vs %s %s %s", kind, i, f, d.Name, d.Unit, d.Better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
}

func TestLayerOfCoversEveryReportedLayer(t *testing.T) {
	seen := map[string]bool{}
	for _, pkg := range []string{"repro/internal/cache", "repro/internal/memctrl", "repro/internal/eventq",
		"repro/internal/interconnect", "repro/internal/trace", "repro/internal/experiments",
		"repro/internal/core", "repro/internal/api", "runtime", "encoding/json"} {
		seen[layerOf(pkg)] = true
	}
	for _, l := range layers {
		if !seen[l] {
			t.Errorf("no package maps to layer %s", l)
		}
	}
}

func TestComparableRefusesOtherHosts(t *testing.T) {
	base := Provenance{CPUModel: "Xeon", GOMAXPROCS: 2, GitRev: "a"}
	same := base
	same.GitRev, same.Build = "b", "other build"
	if why := comparable(base, same); why != "" {
		t.Errorf("same host refused: %s", why)
	}
	cpu, procs := base, base
	cpu.CPUModel = "EPYC"
	procs.GOMAXPROCS = 1
	if comparable(base, cpu) == "" || comparable(base, procs) == "" {
		t.Error("results from another CPU model or GOMAXPROCS accepted")
	}
}

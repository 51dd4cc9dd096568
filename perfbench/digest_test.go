package main

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallRun simulates a cheap UMA run, so the result has bus statistics as
// well as controller statistics.
func smallRun(t *testing.T) sim.Result {
	t.Helper()
	spec := machine.IntelUMA8()
	wl, err := workload.NewTuned("EP", workload.S, workload.Tuning{RefScale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.Config{Spec: spec, Cores: 4}, wl.Streams(spec.TotalCores()))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MCStats) == 0 || len(res.BusStats) == 0 {
		t.Fatalf("want controller and bus stats, got %d and %d", len(res.MCStats), len(res.BusStats))
	}
	return res
}

func TestDigestCheckRejectsAnyPerturbedCounter(t *testing.T) {
	res := smallRun(t)
	want := Expected{Runs: map[string]string{strconv.Itoa(res.Cores): digest(res)}}
	if bad := checkRuns(want, map[int]sim.Result{res.Cores: res}); len(bad) != 0 {
		t.Fatalf("unperturbed run rejected: %v", bad)
	}
	perturb := map[string]func(r *sim.Result){
		"TotalCycles":     func(r *sim.Result) { r.TotalCycles++ },
		"WorkCycles":      func(r *sim.Result) { r.WorkCycles++ },
		"StallCycles":     func(r *sim.Result) { r.StallCycles++ },
		"LLCMisses":       func(r *sim.Result) { r.LLCMisses++ },
		"OffChipRequests": func(r *sim.Result) { r.OffChipRequests++ },
		"RemoteRequests":  func(r *sim.Result) { r.RemoteRequests++ },
		"Events":          func(r *sim.Result) { r.Events++ },
		"MC.Requests":     func(r *sim.Result) { r.MCStats[0].Requests++ },
		"MC.RowHits":      func(r *sim.Result) { r.MCStats[0].RowHits++ },
		"MC.TotalWait":    func(r *sim.Result) { r.MCStats[0].TotalWait++ },
		"MC.TotalService": func(r *sim.Result) { r.MCStats[0].TotalService++ },
		"MC.BusyCycles":   func(r *sim.Result) { r.MCStats[0].BusyCycles++ },
		"MC.MaxQueueLen":  func(r *sim.Result) { r.MCStats[0].MaxQueueLen++ },
		"MC.Rejected":     func(r *sim.Result) { r.MCStats[0].Rejected++ },
		"Bus.TotalWait":   func(r *sim.Result) { r.BusStats[len(r.BusStats)-1].TotalWait++ },
	}
	for name, fn := range perturb {
		r := res
		r.MCStats = append(r.MCStats[:0:0], res.MCStats...)
		r.BusStats = append(r.BusStats[:0:0], res.BusStats...)
		fn(&r)
		if bad := checkRuns(want, map[int]sim.Result{r.Cores: r}); len(bad) != 1 {
			t.Errorf("%s perturbed: check reported %d mismatches, want 1", name, len(bad))
		}
	}
}

func TestDigestCheckRejectsUnrecordedRun(t *testing.T) {
	res := smallRun(t)
	if bad := checkRuns(Expected{Runs: map[string]string{}}, map[int]sim.Result{res.Cores: res}); len(bad) != 1 {
		t.Errorf("unrecorded run: %d mismatches, want 1", len(bad))
	}
}

func TestSameMRE(t *testing.T) {
	if !sameMRE(4.416299, 4.416299) || sameMRE(4.416299, 4.4163) {
		t.Error("sameMRE must accept equal values and reject a change in the sixth digit")
	}
}

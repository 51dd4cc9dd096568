package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{3.5, 1.25, 9.0, 2.0, 7.75}, [3]float64{1.625, 3.5, 8.375}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want (3.75-1.25)/2.5 = 1", got)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.9: 46, 1: 50} {
		if got := percentile(xs, q); math.Abs(got-want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestReportKeepsSampleCounts(t *testing.T) {
	r := newReport(endToEnd)
	r.set("sweep_s", 1.5, 7)
	if r.samples["sweep_s"] != 7 || r.metrics["sweep_s"] != (metric{1.5, "s"}) {
		t.Errorf("sweep_s recorded as %v with n=%d", r.metrics["sweep_s"], r.samples["sweep_s"])
	}
	if miss := r.missing(endToEnd); len(miss) != len(endToEnd)-1 {
		t.Errorf("missing = %v", miss)
	}
}

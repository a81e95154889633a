package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The reporting rule: the highest percentile that still has at least ten
// samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64 // 0: no tail reported
	}{
		{10, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		pct, v, ok := tail(seq(tc.n))
		if ok != (tc.pct != 0) || pct != tc.pct {
			t.Errorf("n=%d: got p%g ok=%v, want p%g", tc.n, pct, ok, tc.pct)
			continue
		}
		if ok {
			// seq's values are their own 1-based ranks.
			if beyond := tc.n - int(v); beyond < 10 {
				t.Errorf("n=%d: p%g=%g has only %d samples beyond it", tc.n, pct, v, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %g", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty: want NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median reordered its argument")
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the driver uses; the expected values below are its output.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{seq(4), 1.25, 3.75},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10.2, 9.8, 10.0, 10.4, 9.9, 10.1, 10.3, 9.7, 10.0, 10.6}, 9.875, 10.325},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("%v: got %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-9 { // (8.25-2.75)/5.5
		t.Errorf("spread: got %g, want 1", got)
	}
}

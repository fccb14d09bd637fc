package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7, 7}, 7, 7, 7},
		{[]float64{3, 1, 2}, 1, 2, 3},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestQuantileInterpolatesAndKeepsFailuresInTheTail(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 1: 4, 0.25: 1.75} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, q, got, want)
		}
	}
	failed := []float64{1, 2, math.Inf(1)}
	if got := quantile(failed, 0.5); got != 2 {
		t.Errorf("median with one failure = %v, want 2", got)
	}
	if got := quantile(failed, 0.75); !math.IsInf(got, 1) {
		t.Errorf("tail reaching a failure = %v, want +Inf", got)
	}
}

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{100000: 0.99, 1000: 0.99, 999: 0.95, 200: 0.95, 199: 0.9, 40: 0.75, 39: 0.5, 0: 0.5} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

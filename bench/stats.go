package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs with linear interpolation
// between order statistics. A failed operation is recorded as +Inf, so
// the quantile of a sample with failures in its tail is +Inf rather
// than a misleadingly small number.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 || s[lo] == s[lo+1] {
		return s[lo]
	}
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// tailQuantile returns the highest of p99, p95, p90 and p75 that still
// has at least ten of n samples beyond it, or the median when none has.
// A tail quantile with fewer samples beyond it is a reading of one or
// two outliers.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.9, 0.75} {
		if math.Floor(float64(n)*(1-q)+1e-9) >= 10 {
			return q
		}
	}
	return 0.5
}

package main

import (
	"sort"

	"fdp/internal/metrics"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for an empty sample: the repository's own definition
// (metrics.Sample), so these numbers read like the bench harness's.
func percentile(xs []float64, p float64) float64 {
	var s metrics.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(p)
}

// median is the interpolated median (the mean of the two middle values for
// an even sample, as Python's statistics.median), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) computes
// them — the acceptance procedure is stated in those terms. It needs at
// least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		// position i*(n+1)/4 on the 1-based sorted sample, interpolated
		// (extrapolated when the clamp moves j, as Python does)
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// ratio is a/b, or 0 when b is 0 — a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

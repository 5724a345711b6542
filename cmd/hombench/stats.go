package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a q share of samples at or below it. A failed
// operation enters as +Inf, so it counts as exceeding every latency.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads match the ones the benchmark's acceptance rule uses.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var out [3]float64
	ld := len(s)
	if ld == 0 {
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(q[1])
}

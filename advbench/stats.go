package main

import "sort"

// quantile returns the nearest-rank p-th percentile of the samples: the
// smallest sample with at least p% of all samples at or below it. It is
// always an observed sample, never an interpolation or a histogram bucket
// bound, so it can exceed neither the maximum nor fall below the minimum.
func quantile(samples []float64, p int) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n, p int) int {
	return max((p*n+99)/100, 1)
}

// maxTailPercentile caps the tail percentile. On a shared host the slowest
// 10-20% of steps are set by machine-wide slow phases (a pure ALU loop
// shows the same 1.3-2x phases), and over ten seeds p90-p96 of the
// 1e6-particle workload spread 20-30% run to run, p80 under 20%.
const maxTailPercentile = 80

// tailPercentile is the highest whole percentile, at most
// maxTailPercentile, that leaves at least ten of n samples beyond its rank.
// It moves by a point or two as n does, so runs of slightly different
// lengths report comparable tails. Below 20 samples even the median leaves
// fewer than ten beyond it; the tail is then the median.
func tailPercentile(n int) int {
	return min(max(100*(n-10)/max(n, 1), 50), maxTailPercentile)
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

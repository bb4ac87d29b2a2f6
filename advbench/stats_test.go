package main

import (
	"math/rand"
	"slices"
	"testing"
)

// Every reported quantile must be a sample the run observed, never above
// the maximum, and the tail percentile must leave at least ten samples
// beyond its rank.
func TestQuantilesAreObservedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 300; n++ {
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = rng.ExpFloat64()
		}
		if n%7 == 0 {
			samples[n/2] = samples[0] // ties
		}
		mx := slices.Max(samples)
		tail := tailPercentile(n)
		for _, p := range []int{50, tail, 100} {
			q := quantile(samples, p)
			if !slices.Contains(samples, q) {
				t.Fatalf("n=%d p%d: %g is not an observed sample", n, p, q)
			}
			if q > mx {
				t.Fatalf("n=%d p%d: %g exceeds the max %g", n, p, q, mx)
			}
		}
		if tail > 50 && n-rank(n, tail) < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples beyond it", n, tail, n-rank(n, tail))
		}
		if quantile(samples, 100) != mx {
			t.Fatalf("n=%d: p100 is not the max", n)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, p int }{
		{1, 50}, {20, 50}, {21, 52}, {39, 74}, {40, 75}, {49, 79}, {50, 80}, {1000, 80},
	} {
		if got := tailPercentile(c.n); got != c.p {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.p)
		}
	}
}

package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// snap builds a snapshot of a live histogram with the given bounds after
// observing vals, exercising the same bucketing the registry uses.
func snap(t *testing.T, bounds []float64, vals ...float64) HistogramSnapshot {
	t.Helper()
	r := NewRegistry()
	h := r.Histogram("h", bounds)
	for _, v := range vals {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %d, want 1", len(s.Histograms))
	}
	return s.Histograms[0]
}

// quantileCase is one quantile of a snapshot: interp is the within-bucket
// interpolation, want what Quantile returns after clamping it into the
// observed range.
type quantileCase struct{ q, interp, want float64 }

func checkQuantiles(t *testing.T, h HistogramSnapshot, cases ...quantileCase) {
	t.Helper()
	for _, tc := range cases {
		if got := h.bucketQuantile(tc.q); got != tc.interp {
			t.Errorf("bucket interpolation at q=%g = %g, want %g", tc.q, got, tc.interp)
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileExactOnUniformBucketFill(t *testing.T) {
	// One observation per unit bucket: the empirical distribution is
	// uniform on [0, 10], where linear interpolation is exact. Quantile
	// clamps the two ends into the observed [0.5, 9.5].
	bounds := LinearBuckets(1, 1, 10) // 1..10
	var vals []float64
	for i := 0; i < 10; i++ {
		vals = append(vals, float64(i)+0.5)
	}
	checkQuantiles(t, snap(t, bounds, vals...),
		quantileCase{0, 0, 0.5}, quantileCase{0.1, 1, 1}, quantileCase{0.25, 2.5, 2.5},
		quantileCase{0.5, 5, 5}, quantileCase{0.75, 7.5, 7.5}, quantileCase{0.9, 9, 9},
		quantileCase{1, 10, 9.5})
}

func TestQuantileSingleBucketInterpolates(t *testing.T) {
	// All mass in one [0, 10] bucket: the interpolation is 10q regardless
	// of where inside the bucket the observations actually sat; Quantile
	// clamps it into the observed [1, 4].
	checkQuantiles(t, snap(t, []float64{10}, 1, 2, 3, 4),
		quantileCase{0.25, 2.5, 2.5}, quantileCase{0.5, 5, 4}, quantileCase{0.75, 7.5, 4})
}

func TestQuantileWithinBucketWidthOfExact(t *testing.T) {
	// A skewed sample against moderately coarse buckets: the estimate
	// must land within the width of the bucket holding the true value.
	bounds := ExpBuckets(0.001, 2, 16)
	var vals []float64
	for i := 1; i <= 200; i++ {
		vals = append(vals, 0.001*math.Pow(1.05, float64(i)))
	}
	h := snap(t, bounds, vals...)
	for _, q := range []float64{0.5, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := h.Quantile(q)
		// The containing bucket's width bounds the interpolation error.
		i := 0
		for i < len(bounds) && bounds[i] < exact {
			i++
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		width := bounds[min(i, len(bounds)-1)] - lo
		if math.Abs(got-exact) > width {
			t.Errorf("Quantile(%g) = %g, exact %g, off by more than bucket width %g", q, got, exact, width)
		}
	}
}

func TestQuantileOverflowClipsToLargestBound(t *testing.T) {
	// The overflow bucket clips to the largest finite bound, 2, which lies
	// below every observation; Quantile clamps it up to the minimum.
	checkQuantiles(t, snap(t, []float64{1, 2}, 5, 6, 7),
		quantileCase{0.5, 2, 5}, quantileCase{1, 2, 5})
}

func TestQuantileNeverExceedsObservedMax(t *testing.T) {
	// Every step takes 90.9 ms, inside the (40.96 ms, 163.84 ms] stage
	// bucket: interpolation alone puts p99 near the bucket's upper edge.
	const step = 0.0909
	r := NewRegistry()
	h := r.Histogram("stage_seconds", StageSecondsBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				h.Observe(step)
			}
		}()
	}
	wg.Wait()
	hs := r.Snapshot().Histograms[0]
	if hs.Count != 100 || hs.Min != step || hs.Max != step {
		t.Fatalf("count %d, min %g, max %g; want 100 observations of %g", hs.Count, hs.Min, hs.Max, step)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := hs.Quantile(q); got > step {
			t.Errorf("Quantile(%g) = %g s, above the observed max %g s", q, got, step)
		}
	}
	// An empty series reports a zero range, which JSON can encode.
	r.Histogram("empty", StageSecondsBuckets)
	if e := r.Snapshot().Histograms[0]; e.Name != "empty" || e.Min != 0 || e.Max != 0 {
		t.Errorf("empty histogram %q range [%g, %g], want [0, 0]", e.Name, e.Min, e.Max)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram Quantile = %g, want NaN", got)
	}
	// No finite bounds: only the +Inf bucket exists.
	if got := snap(t, nil, 1, 2).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("unbounded histogram Quantile = %g, want NaN", got)
	}
	// Out-of-range q clamps, and the estimate then clamps into the
	// observed [0.5, 1.5].
	checkQuantiles(t, snap(t, []float64{1, 2}, 0.5, 1.5),
		quantileCase{-1, 0, 0.5}, quantileCase{2, 2, 1.5})
	// Negative-bound first bucket returns the bound unsplit (no zero
	// lower edge to interpolate from), clamped to the observation -2.
	checkQuantiles(t, snap(t, []float64{-1, 1}, -2), quantileCase{0.5, -1, -2})
}

func TestTableShowsQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LinearBuckets(1, 1, 10))
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	tbl := r.Snapshot().Table()
	for _, want := range []string{"p50 5", "p95 9.5"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("table missing %q:\n%s", want, tbl)
		}
	}
}

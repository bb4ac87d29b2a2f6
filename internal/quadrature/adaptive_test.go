package quadrature

import (
	"math"
	"testing"
)

// wiggly is an integrand adversarial enough to force uneven refinement:
// a narrow peak plus oscillation, so the adaptive partition is deep on the
// left and shallow on the right.
func wiggly(x float64) float64 {
	return 1/(1e-3+x*x) + math.Sin(40*x)
}

// TestIterativeAdaptiveSimpsonEvaluationOrder: the explicit stack probes the
// integrand at the recursion's abscissae in the order the recursion first
// reaches each — its call sequence with the repeats of already computed
// endpoints and midpoints left out.
func TestIterativeAdaptiveSimpsonEvaluationOrder(t *testing.T) {
	record := func(log *[]float64) Func {
		return func(x float64) float64 {
			*log = append(*log, x)
			return wiggly(x)
		}
	}
	var recLog, reuseLog []float64
	AdaptiveSimpson(record(&recLog), 0, 2, 1e-7, 30)
	var ws AdaptiveWorkspace
	ws.IntegrateReuse(record(&reuseLog), 0, 2, 1e-7, 30, Known{}, nil)
	seen := map[float64]bool{}
	var first []float64
	for _, x := range recLog {
		if !seen[x] {
			seen[x] = true
			first = append(first, x)
		}
	}
	if len(first) != len(reuseLog) {
		t.Fatalf("evaluation count %d, recursion reaches %d distinct abscissae", len(reuseLog), len(first))
	}
	for i := range first {
		if first[i] != reuseLog[i] {
			t.Fatalf("evaluation %d at %v, recursion first reaches %v", i, reuseLog[i], first[i])
		}
	}
}

// TestIntegrateReuseBitwiseIdentical holds the iterative, panel-value-
// reusing adaptive Simpson to the recursive reference: identical integral,
// error, reported evaluation count and partition, for smooth, oscillatory,
// depth-limited and empty intervals.
func TestIntegrateReuseBitwiseIdentical(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		depth     int
	}{
		{0, 1, 1e-8, 30},
		{-0.3, 2.7, 1e-6, 30},
		{0, 4, 1e-10, 8}, // depth-limited: accepts over-tolerance panels
		{1, 1, 1e-8, 30}, // empty interval
	}
	var ws AdaptiveWorkspace
	for _, c := range cases {
		want := AdaptiveSimpson(wiggly, c.a, c.b, c.tol, c.depth)
		got, _, part := ws.IntegrateReuse(wiggly, c.a, c.b, c.tol, c.depth, Known{}, []float64{c.a})
		if got.I != want.I || got.Err != want.Err || got.Evals != want.Evals {
			t.Fatalf("[%g,%g] tol=%g: reuse (I=%v Err=%v Evals=%d) != recursive (I=%v Err=%v Evals=%d)",
				c.a, c.b, c.tol, got.I, got.Err, got.Evals, want.I, want.Err, want.Evals)
		}
		if len(part) != len(want.Partition) {
			t.Fatalf("[%g,%g]: partition length %d != %d", c.a, c.b, len(part), len(want.Partition))
		}
		for i := range part {
			if part[i] != want.Partition[i] {
				t.Fatalf("[%g,%g]: partition[%d] = %v != %v", c.a, c.b, i, part[i], want.Partition[i])
			}
		}
	}
}

// TestIterativeAdaptiveSimpsonBitwiseIdentical holds a multi-subregion
// integration — adjacent IntegrateReuse calls handing their shared endpoint
// on and appending to one partition — to the recursive reference run on
// each subregion: every subregion's integral, error and reported
// evaluation count bit for bit, and the accumulated partition equal to the
// subregions' partitions joined at their shared breakpoints. The chain
// holds an empty subregion and a depth-limited one.
func TestIterativeAdaptiveSimpsonBitwiseIdentical(t *testing.T) {
	breaks := []float64{-0.3, 0, 0.5, 0.5, 2.7, 4}
	tols := []float64{1e-6, 1e-8, 1e-8, 1e-6, 1e-10}
	depths := []int{30, 30, 30, 30, 8}
	var ws AdaptiveWorkspace
	part := []float64{breaks[0]}
	want := []float64{breaks[0]}
	var k Known
	for i := 0; i+1 < len(breaks); i++ {
		a, b := breaks[i], breaks[i+1]
		ref := AdaptiveSimpson(wiggly, a, b, tols[i], depths[i])
		var got Estimate
		got, k, part = ws.IntegrateReuse(wiggly, a, b, tols[i], depths[i], k, part)
		if got.I != ref.I || got.Err != ref.Err || got.Evals != ref.Evals {
			t.Fatalf("[%g,%g] tol=%g: iterative (I=%v Err=%v Evals=%d) != recursive (I=%v Err=%v Evals=%d)",
				a, b, tols[i], got.I, got.Err, got.Evals, ref.I, ref.Err, ref.Evals)
		}
		want = append(want, ref.Partition[1:]...)
	}
	if len(part) != len(want) {
		t.Fatalf("partition length %d != %d", len(part), len(want))
	}
	for i := range part {
		if part[i] != want[i] {
			t.Fatalf("partition[%d] = %v != %v", i, part[i], want[i])
		}
	}
}

// TestIntegrateReuseCallsEachAbscissaOnce pins the point of the variant:
// the integrand is invoked exactly once per distinct abscissa — the
// refinement's endpoint/midpoint re-probes are served from frame state —
// while the reported Evals still counts the nominal five per panel.
func TestIntegrateReuseCallsEachAbscissaOnce(t *testing.T) {
	seen := map[float64]int{}
	calls := 0
	f := func(x float64) float64 {
		seen[x]++
		calls++
		return wiggly(x)
	}
	var ws AdaptiveWorkspace
	est, _, _ := ws.IntegrateReuse(f, 0, 2, 1e-7, 30, Known{}, nil)
	for x, n := range seen {
		if n != 1 {
			t.Fatalf("abscissa %v evaluated %d times, want 1", x, n)
		}
	}
	if calls >= est.Evals {
		t.Fatalf("reuse made %d calls for %d nominal evals — no reuse happened", calls, est.Evals)
	}
	// Panels = Evals/5; distinct abscissae = 3 + 2 per panel.
	if want := 3 + 2*est.Evals/5; calls != want {
		t.Fatalf("reuse made %d calls, want %d (3 + 2 per panel)", calls, want)
	}
}

// TestIntegrateReuseCarriesEndpoint pins the endpoint hand-over: given
// f(a), IntegrateReuse returns the same estimate, Evals and partition as
// without it with one integrand call fewer, never calls f at a, and
// returns f(b). A Known whose X is not bitwise a (here -0 against +0, and
// a neighbouring float) is ignored, and an empty interval returns none.
func TestIntegrateReuseCarriesEndpoint(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		depth     int
	}{
		{0, 1, 1e-8, 30},
		{-0.3, 2.7, 1e-6, 30},
		{0, 4, 1e-10, 8},
		{0.25, 0.75, 1, 30}, // accepted at the root: five calls without f(a), four with
	}
	var ws AdaptiveWorkspace
	for _, c := range cases {
		calls, callsAtA := 0, 0
		f := func(x float64) float64 {
			calls++
			if math.Float64bits(x) == math.Float64bits(c.a) {
				callsAtA++
			}
			return wiggly(x)
		}
		want, wantFB, wantPart := ws.IntegrateReuse(f, c.a, c.b, c.tol, c.depth, Known{}, []float64{c.a})
		plainCalls := calls
		if callsAtA != 1 {
			t.Fatalf("[%g,%g]: %d calls at a without a Known, want 1", c.a, c.b, callsAtA)
		}
		if !wantFB.OK || wantFB.X != c.b || wantFB.F != wiggly(c.b) {
			t.Fatalf("[%g,%g]: returned %+v, want f(b) = %v at %v", c.a, c.b, wantFB, wiggly(c.b), c.b)
		}
		calls, callsAtA = 0, 0
		got, gotFB, part := ws.IntegrateReuse(f, c.a, c.b, c.tol, c.depth, Known{X: c.a, F: wiggly(c.a), OK: true}, []float64{c.a})
		if got != want || gotFB != wantFB {
			t.Fatalf("[%g,%g]: with f(a) (%+v, %+v) != without (%+v, %+v)", c.a, c.b, got, gotFB, want, wantFB)
		}
		if len(part) != len(wantPart) {
			t.Fatalf("[%g,%g]: partition length %d != %d", c.a, c.b, len(part), len(wantPart))
		}
		for i := range part {
			if part[i] != wantPart[i] {
				t.Fatalf("[%g,%g]: partition[%d] = %v != %v", c.a, c.b, i, part[i], wantPart[i])
			}
		}
		if callsAtA != 0 || calls != plainCalls-1 {
			t.Fatalf("[%g,%g]: with f(a): %d calls (%d at a), want %d (0 at a)", c.a, c.b, calls, callsAtA, plainCalls-1)
		}
	}

	// A Known elsewhere is not taken as f(a).
	for _, k := range []Known{
		{X: math.Copysign(0, -1), F: 42, OK: true},
		{X: math.Nextafter(0, 1), F: 42, OK: true},
		{X: 0, F: 42},
	} {
		calls := 0
		f := func(x float64) float64 {
			if x == 0 {
				calls++
			}
			return wiggly(x)
		}
		got, _, _ := ws.IntegrateReuse(f, 0, 1, 1e-8, 30, k, nil)
		want, _, _ := ws.IntegrateReuse(wiggly, 0, 1, 1e-8, 30, Known{}, nil)
		if got != want || calls != 1 {
			t.Fatalf("Known %+v at a = 0: estimate %+v (want %+v), %d calls at 0 (want 1)", k, got, want, calls)
		}
	}
	if _, fb, _ := ws.IntegrateReuse(wiggly, 1, 1, 1e-8, 30, Known{X: 1, F: wiggly(1), OK: true}, nil); fb.OK {
		t.Fatalf("empty interval returned %+v, want none", fb)
	}
}

// TestIntegrateReuseReusesStack pins the steady-state zero-allocation
// contract: once the stack has grown, an integration allocates nothing.
func TestIntegrateReuseReusesStack(t *testing.T) {
	var ws AdaptiveWorkspace
	part := make([]float64, 0, 4096)
	ws.IntegrateReuse(wiggly, 0, 1, 1e-8, 30, Known{}, part[:0]) // grow the stack
	allocs := testing.AllocsPerRun(50, func() {
		ws.IntegrateReuse(wiggly, 0, 1, 1e-8, 30, Known{}, part[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state IntegrateReuse allocates %.1f objects", allocs)
	}
}

// TestIterativeAdaptiveSimpsonReusesStack pins the workspace's reuse across
// intervals: once the deepest subregion has grown the stack, a whole
// multi-subregion integration — shallow and deep subregions, endpoints
// handed on, one partition — allocates nothing.
func TestIterativeAdaptiveSimpsonReusesStack(t *testing.T) {
	breaks := []float64{-0.3, 0, 0.5, 2.7, 4}
	var ws AdaptiveWorkspace
	var part []float64
	run := func() {
		part = append(part[:0], breaks[0])
		var k Known
		for i := 0; i+1 < len(breaks); i++ {
			_, k, part = ws.IntegrateReuse(wiggly, breaks[i], breaks[i+1], 1e-8, 30, k, part)
		}
	}
	run() // grow the stack and the partition
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Fatalf("steady-state multi-subregion integration allocates %.1f objects", allocs)
	}
}

func TestAppendWeightsMatchesNewtonCotes(t *testing.T) {
	for _, o := range []NewtonCotesOrder{Trapezoid, Simpson, Simpson38, Boole} {
		w := o.AppendWeights(nil)
		if len(w) != o.Points() {
			t.Fatalf("order %d: %d weights, want %d", o, len(w), o.Points())
		}
		var sum float64
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-15 {
			t.Fatalf("order %d: weights sum to %v", o, sum)
		}
	}
}

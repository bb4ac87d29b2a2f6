package analytic

import (
	"math"
	"testing"

	"beamdyn/internal/grid"
	"beamdyn/internal/phys"
)

func beam() phys.Beam {
	return phys.Beam{
		NumParticles: 1,
		TotalCharge:  1e-9,
		SigmaX:       1e-4,
		SigmaY:       2e-4,
		Energy:       1e9,
	}
}

func TestContinuumDepositNormalisation(t *testing.T) {
	b := beam()
	g := grid.New(128, 128, grid.MomentComponents, -6e-4, -12e-4, 12e-4/127, 24e-4/127)
	ContinuumDeposit(g, b, 0, 0)
	q := g.Total(grid.CompCharge) * g.DX * g.DY
	if rel := math.Abs(q-b.TotalCharge) / b.TotalCharge; rel > 1e-3 {
		t.Fatalf("integrated continuum charge off by %g", rel)
	}
	// Peak at the centre.
	peak := g.At(64, 64, grid.CompCharge)
	if peak <= 0 || peak < g.MaxAbs(grid.CompCharge)*0.99 {
		t.Fatalf("density peak not at centre: %g vs max %g", peak, g.MaxAbs(grid.CompCharge))
	}
	// Current moment is density times the design velocity.
	v := b.Beta() * phys.C
	jy := g.At(64, 64, grid.CompCurrentY)
	if math.Abs(jy-peak*v) > 1e-9*math.Abs(jy) {
		t.Fatalf("current moment %g, want %g", jy, peak*v)
	}
	if g.At(64, 64, grid.CompCurrentX) != 0 {
		t.Fatal("x current of a y-moving bunch must vanish")
	}
}

func TestContinuumDepositCentering(t *testing.T) {
	b := beam()
	g := grid.New(64, 64, grid.MomentComponents, 0, 0, 1e-5, 2e-5)
	ContinuumDeposit(g, b, 3e-4, 6e-4)
	// Centroid of the density must be at (cx, cy).
	var m, mx, my float64
	for iy := 0; iy < 64; iy++ {
		for ix := 0; ix < 64; ix++ {
			x, y := g.Point(ix, iy)
			rho := g.At(ix, iy, grid.CompCharge)
			m += rho
			mx += rho * x
			my += rho * y
		}
	}
	if math.Abs(mx/m-3e-4) > 1e-6 || math.Abs(my/m-6e-4) > 2e-6 {
		t.Fatalf("centroid (%g, %g), want (3e-4, 6e-4)", mx/m, my/m)
	}
}

func TestGaussianLineDensity(t *testing.T) {
	// Normalisation: trapezoid integral over +-8 sigma is 1.
	const sigma = 2.5
	var sum float64
	const n = 4000
	h := 16 * sigma / n
	for i := 0; i <= n; i++ {
		s := -8*sigma + float64(i)*h
		w := 1.0
		if i == 0 || i == n {
			w = 0.5
		}
		sum += w * GaussianLineDensity(s, sigma)
	}
	if math.Abs(sum*h-1) > 1e-9 {
		t.Fatalf("line density integrates to %g", sum*h)
	}
	// Slope is the analytic derivative.
	const s0 = 1.3
	got := GaussianLineDensitySlope(s0, sigma)
	h2 := 1e-6
	want := (GaussianLineDensity(s0+h2, sigma) - GaussianLineDensity(s0-h2, sigma)) / (2 * h2)
	if math.Abs(got-want) > 1e-6*math.Abs(want) {
		t.Fatalf("slope %g, numeric %g", got, want)
	}
}

func TestSteadyStateWakeShape(t *testing.T) {
	// The classical steady-state CSR wake shape (u^(-1/3) kernel on the
	// density slope): bipolar across the bunch — the kernel-on-slope
	// convolution is negative at the head and positive in the tail-side
	// core (the physical prefactor carries the overall minus sign) — with
	// the extrema inside a few sigma and decay behind the bunch.
	const sigma = 1.0
	inf := math.Inf(1) // no horizon: the steady-state wake itself
	head := SteadyStateWakeTruncated(2*sigma, sigma, inf)
	core := SteadyStateWakeTruncated(-0.5*sigma, sigma, inf)
	if head*core >= 0 {
		t.Fatalf("wake does not change sign across the bunch: head %g core %g", head, core)
	}
	// Strict decay behind the bunch (retarded support vanishes there).
	behind := math.Abs(SteadyStateWakeTruncated(-12*sigma, sigma, inf))
	if behind > 1e-9 {
		t.Fatalf("wake does not vanish behind the bunch: %g", behind)
	}
	// The long u^(-1/3) tail ahead decays monotonically but slowly.
	if a, b := math.Abs(SteadyStateWakeTruncated(6*sigma, sigma, inf)), math.Abs(SteadyStateWakeTruncated(12*sigma, sigma, inf)); b >= a {
		t.Fatalf("wake tail not decaying ahead: |W(6s)|=%g |W(12s)|=%g", a, b)
	}
}

func TestWakeScaleInvariance(t *testing.T) {
	// W(a*s, a*sigma) = a^(-4/3) * W(s, sigma) for the u^(-1/3) kernel on
	// lambda' (lambda scales as 1/a, lambda' as 1/a^2, kernel integral
	// contributes a^(2/3)).
	const sigma = 1.0
	const a = 2.0
	inf := math.Inf(1)
	w1 := SteadyStateWakeTruncated(0.7, sigma, inf)
	w2 := SteadyStateWakeTruncated(0.7*a, sigma*a, inf)
	if math.Abs(w2-math.Pow(a, -4.0/3)*w1) > 1e-6*math.Abs(w1) {
		t.Fatalf("scale invariance violated: %g vs %g", w2, math.Pow(a, -4.0/3)*w1)
	}
}

func TestMSE(t *testing.T) {
	if mse := MSE([]float64{1, 2}, []float64{1, 4}); mse != 2 {
		t.Fatalf("MSE = %g, want 2", mse)
	}
	if MSE(nil, nil) != 0 {
		t.Fatal("empty MSE must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched MSE did not panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{2, 4, 6, 8}
	if c := Correlation(a, b); math.Abs(c-1) > 1e-12 {
		t.Fatalf("perfect correlation = %g", c)
	}
	neg := []float64{8, 6, 4, 2}
	if c := Correlation(a, neg); math.Abs(c+1) > 1e-12 {
		t.Fatalf("anti-correlation = %g", c)
	}
	flat := []float64{5, 5, 5, 5}
	if c := Correlation(a, flat); c != 0 {
		t.Fatalf("correlation with constant = %g", c)
	}
}

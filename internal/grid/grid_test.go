package grid

import (
	"math"
	"testing"
	"testing/quick"

	"beamdyn/internal/particles"
	"beamdyn/internal/phys"
)

func testBeam(n int) phys.Beam {
	return phys.Beam{
		NumParticles: n,
		TotalCharge:  1e-9,
		SigmaX:       1e-4,
		SigmaY:       2e-4,
		Energy:       1e9,
	}
}

func TestGridGeometry(t *testing.T) {
	g := New(8, 6, 3, -1, -2, 0.5, 1)
	x0, y0, x1, y1 := g.Bounds()
	if x0 != -1 || y0 != -2 || x1 != -1+7*0.5 || y1 != -2+5 {
		t.Fatalf("bounds (%g,%g)-(%g,%g)", x0, y0, x1, y1)
	}
	x, y := g.Point(3, 2)
	fx, fy := g.Cell(x, y)
	if math.Abs(fx-3) > 1e-12 || math.Abs(fy-2) > 1e-12 {
		t.Fatalf("Cell(Point(3,2)) = (%g,%g)", fx, fy)
	}
}

func TestGridPanicsOnBadDims(t *testing.T) {
	for _, f := range []func(){
		func() { New(1, 4, 1, 0, 0, 1, 1) },
		func() { New(4, 4, 0, 0, 0, 1, 1) },
		func() { New(4, 4, 1, 0, 0, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid grid did not panic")
				}
			}()
			f()
		}()
	}
}

func TestIndexPlanarLayout(t *testing.T) {
	g := New(4, 3, 2, 0, 0, 1, 1)
	// Component planes must be contiguous and row-major within.
	if g.Index(0, 0, 0) != 0 || g.Index(1, 0, 0) != 1 || g.Index(0, 1, 0) != 4 {
		t.Fatal("row-major layout broken")
	}
	if g.Index(0, 0, 1) != 12 {
		t.Fatalf("component plane offset = %d, want 12", g.Index(0, 0, 1))
	}
}

func TestSetAtAddRoundTrip(t *testing.T) {
	g := New(4, 4, 2, 0, 0, 1, 1)
	g.Set(2, 3, 1, 7)
	g.Add(2, 3, 1, 3)
	if v := g.At(2, 3, 1); v != 10 {
		t.Fatalf("At = %g, want 10", v)
	}
}

func TestCloneAndZero(t *testing.T) {
	g := New(4, 4, 1, 0, 0, 1, 1)
	g.Set(1, 1, 0, 5)
	c := g.Clone()
	g.Zero()
	if c.At(1, 1, 0) != 5 {
		t.Fatal("Clone shares storage with original")
	}
	if g.At(1, 1, 0) != 0 {
		t.Fatal("Zero did not clear")
	}
}

func TestDepositConservesCharge(t *testing.T) {
	for _, s := range []Scheme{NGP, CIC, TSC} {
		e := particles.NewGaussian(testBeam(5000), 1)
		g := New(64, 64, MomentComponents, -8e-4, -16e-4, 16e-4/63*2, 32e-4/63*2)
		dropped := Deposit(g, e, s)
		if dropped != 0 {
			t.Fatalf("%v: dropped %d particles", s, dropped)
		}
		q := g.Total(CompCharge) * g.DX * g.DY
		if rel := math.Abs(q-1e-9) / 1e-9; rel > 1e-9 {
			t.Errorf("%v: deposited charge off by %g", s, rel)
		}
	}
}

func TestDepositDropsOutOfBounds(t *testing.T) {
	e := &particles.Ensemble{P: []particles.Particle{{X: 100, Y: 100, Charge: 1}}}
	g := New(8, 8, MomentComponents, 0, 0, 1, 1)
	if dropped := Deposit(g, e, CIC); dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestDepositCurrentMoments(t *testing.T) {
	e := &particles.Ensemble{P: []particles.Particle{{X: 4, Y: 4, VX: 2, VY: 3, Charge: 1}}}
	g := New(9, 9, MomentComponents, 0, 0, 1, 1)
	Deposit(g, e, CIC)
	q := g.Total(CompCharge)
	jx := g.Total(CompCurrentX)
	jy := g.Total(CompCurrentY)
	if math.Abs(jx/q-2) > 1e-12 || math.Abs(jy/q-3) > 1e-12 {
		t.Fatalf("current moments: jx/q=%g jy/q=%g", jx/q, jy/q)
	}
}

func TestInterpReproducesDeposit(t *testing.T) {
	// Interpolating the deposited field of a single particle at the
	// particle position must return a positive density for every scheme.
	for _, s := range []Scheme{NGP, CIC, TSC} {
		e := &particles.Ensemble{P: []particles.Particle{{X: 4.3, Y: 4.7, Charge: 1}}}
		g := New(9, 9, MomentComponents, 0, 0, 1, 1)
		Deposit(g, e, s)
		v := Interp(g, 4.3, 4.7, CompCharge, s)
		if v <= 0 {
			t.Errorf("%v: interpolated density %g at particle", s, v)
		}
	}
}

// TestOutsideEdgesMirror places a particle 0.3, 0.7 and 1.2 cells outside
// each edge of each axis, for every scheme: a particle outside the low
// edge must be dropped exactly when its mirror outside the high edge is,
// and Interp of a field of ones must be 0 at both or at neither.
func TestOutsideEdgesMirror(t *testing.T) {
	const n = 8
	g := New(n, n, MomentComponents, 0, 0, 1, 1)
	ones := New(n, n, 1, 0, 0, 1, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	mid := float64(n-1) / 2
	for _, s := range []Scheme{NGP, CIC, TSC} {
		for axis := 0; axis < 2; axis++ {
			for _, d := range []float64{0.3, 0.7, 1.2} {
				probe := func(c float64) (dropped bool, interp float64) {
					x, y := c, mid
					if axis == 1 {
						x, y = mid, c
					}
					e := &particles.Ensemble{P: []particles.Particle{{X: x, Y: y, Charge: 1}}}
					return Deposit(g, e, s) == 1, Interp(ones, x, y, 0, s)
				}
				lowDrop, lowV := probe(-d)
				highDrop, highV := probe(float64(n-1) + d)
				if lowDrop != highDrop {
					t.Errorf("%v axis %d, %.1f cells out: low edge dropped=%v, high edge dropped=%v", s, axis, d, lowDrop, highDrop)
				}
				if (lowV == 0) != (highV == 0) {
					t.Errorf("%v axis %d, %.1f cells out: Interp %g at the low edge, %g at the high edge", s, axis, d, lowV, highV)
				}
			}
		}
	}
}

func TestInterpLinearFieldExactUnderCIC(t *testing.T) {
	// CIC (bilinear) interpolation reproduces linear fields exactly.
	g := New(8, 8, 1, 0, 0, 1, 1)
	for iy := 0; iy < 8; iy++ {
		for ix := 0; ix < 8; ix++ {
			x, y := g.Point(ix, iy)
			g.Set(ix, iy, 0, 2*x+3*y+1)
		}
	}
	check := func(xr, yr float64) bool {
		x := math.Mod(math.Abs(xr), 6) + 0.5
		y := math.Mod(math.Abs(yr), 6) + 0.5
		v := Interp(g, x, y, 0, CIC)
		return math.Abs(v-(2*x+3*y+1)) < 1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInterpOutOfBoundsIsZero(t *testing.T) {
	g := New(4, 4, 1, 0, 0, 1, 1)
	g.Set(0, 0, 0, 1)
	if v := Interp(g, -10, -10, 0, CIC); v != 0 {
		t.Fatalf("OOB interp = %g", v)
	}
}

func TestInterpVecMatchesScalarInterp(t *testing.T) {
	e := particles.NewGaussian(testBeam(2000), 3)
	g := New(32, 32, MomentComponents, -8e-4, -16e-4, 16e-4/31*2, 32e-4/31*2)
	Deposit(g, e, TSC)
	out := make([]float64, MomentComponents)
	for _, pt := range [][2]float64{{0, 0}, {1e-4, -2e-4}, {-2e-4, 3e-4}} {
		InterpVec(g, pt[0], pt[1], TSC, out)
		for c := 0; c < MomentComponents; c++ {
			want := Interp(g, pt[0], pt[1], c, TSC)
			if math.Abs(out[c]-want) > 1e-15*math.Max(1, math.Abs(want)) {
				t.Fatalf("InterpVec[%d] = %g, Interp = %g", c, out[c], want)
			}
		}
	}
}

func TestGradientLinearField(t *testing.T) {
	g := New(8, 8, 1, 0, 0, 0.5, 0.25)
	for iy := 0; iy < 8; iy++ {
		for ix := 0; ix < 8; ix++ {
			x, y := g.Point(ix, iy)
			g.Set(ix, iy, 0, 4*x-2*y)
		}
	}
	for _, p := range [][2]int{{0, 0}, {4, 4}, {7, 7}, {0, 7}} {
		gx, gy := Gradient(g, p[0], p[1], 0)
		if math.Abs(gx-4) > 1e-9 || math.Abs(gy+2) > 1e-9 {
			t.Fatalf("gradient at %v = (%g, %g), want (4, -2)", p, gx, gy)
		}
	}
}

func TestSchemeStrings(t *testing.T) {
	if NGP.String() != "NGP" || CIC.String() != "CIC" || TSC.String() != "TSC" {
		t.Fatal("scheme names wrong")
	}
	if Scheme(42).String() == "" {
		t.Fatal("unknown scheme must still format")
	}
}

func TestHistoryRing(t *testing.T) {
	h := NewHistory(3)
	if h.Latest() != -1 || h.Oldest() != -1 {
		t.Fatal("empty history state wrong")
	}
	for step := 0; step < 5; step++ {
		g := New(4, 4, 1, 0, 0, 1, 1)
		g.Step = step
		h.Push(g)
	}
	if h.Latest() != 4 || h.Len() != 3 || h.Oldest() != 2 {
		t.Fatalf("latest=%d len=%d oldest=%d", h.Latest(), h.Len(), h.Oldest())
	}
	if h.At(1) != nil {
		t.Fatal("evicted step still resident")
	}
	if h.At(5) != nil {
		t.Fatal("future step resident")
	}
	for step := 2; step <= 4; step++ {
		if g := h.At(step); g == nil || g.Step != step {
			t.Fatalf("step %d missing", step)
		}
	}
}

func TestHistoryPushOutOfOrderPanics(t *testing.T) {
	h := NewHistory(3)
	g := New(4, 4, 1, 0, 0, 1, 1)
	g.Step = 2
	h.Push(g)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order push did not panic")
		}
	}()
	g2 := New(4, 4, 1, 0, 0, 1, 1)
	g2.Step = 2
	h.Push(g2)
}

func TestHistoryAddressesStableAndDisjoint(t *testing.T) {
	h := NewHistory(4)
	for step := 0; step < 4; step++ {
		g := New(8, 8, 2, 0, 0, 1, 1)
		g.Step = step
		h.Push(g)
	}
	seen := map[uintptr]bool{}
	for step := 0; step < 4; step++ {
		for iy := 0; iy < 8; iy++ {
			for ix := 0; ix < 8; ix++ {
				for c := 0; c < 2; c++ {
					a, ok := h.Address(step, ix, iy, c)
					if !ok {
						t.Fatalf("address missing for resident step %d", step)
					}
					if seen[a] {
						t.Fatalf("address %#x reused", a)
					}
					seen[a] = true
				}
			}
		}
	}
	if _, ok := h.Address(99, 0, 0, 0); ok {
		t.Fatal("address for non-resident step")
	}
}

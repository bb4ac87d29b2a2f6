package retard

import (
	"math"
	"testing"

	"beamdyn/internal/analytic"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/phys"
	"beamdyn/internal/quadrature"
)

// buildHistory fills a history with continuum Gaussian grids of a bunch
// translating at the design velocity, the standard test fixture for
// rp-integral evaluation.
func buildHistory(steps, nx int, params Params) (*grid.History, phys.Beam) {
	return buildHistoryAt(steps, nx, nx, params, 0, 1)
}

// buildHistoryAt is buildHistory on nx x ny grids with the bunch's
// transverse sigmas scaled by k and the bunch of step s centred at
// y = y0 + s·vΔt; (nx, nx, y0 = 0, k = 1) gives buildHistory's grids bit
// for bit.
func buildHistoryAt(steps, nx, ny int, params Params, y0, k float64) (*grid.History, phys.Beam) {
	beam := phys.Beam{
		NumParticles: 1, TotalCharge: 1e-9,
		SigmaX: k * 20e-6, SigmaY: k * 50e-6, Energy: 4.3e9,
	}
	h := grid.NewHistory(params.Kappa + 4)
	v := beam.Beta() * phys.C
	for s := 0; s < steps; s++ {
		cy := y0 + float64(s)*v*params.Dt
		hx, hy := 5*beam.SigmaX, 5*beam.SigmaY
		g := grid.New(nx, ny, grid.MomentComponents, -hx, cy-hy, 2*hx/float64(nx-1), 2*hy/float64(ny-1))
		g.Step = s
		analytic.ContinuumDeposit(g, beam, 0, cy)
		h.Push(g)
	}
	return h, beam
}

func testParams() Params {
	return Params{
		Dt:        50e-6 / phys.C,
		Kappa:     4,
		Tol:       1e-8,
		WeightExp: 1.0 / 3,
		Component: grid.CompCharge,
	}
}

func TestProblemGeometry(t *testing.T) {
	h, _ := buildHistory(8, 32, testParams())
	p := NewProblem(h, testParams())
	if p.Step != 7 {
		t.Fatalf("step = %d", p.Step)
	}
	if p.NumSub() != 4 {
		t.Fatalf("NumSub = %d, want 4", p.NumSub())
	}
	if sw := p.SubWidth(); math.Abs(sw-50e-6) > 1e-12 {
		t.Fatalf("SubWidth = %g", sw)
	}
}

func TestRBounds(t *testing.T) {
	h, _ := buildHistory(8, 32, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	for iy := 0; iy < g.NY; iy += 7 {
		for ix := 0; ix < g.NX; ix += 7 {
			x, y := g.Point(ix, iy)
			r := p.R(x, y)
			if r <= 0 || r > float64(p.Kappa)*p.SubWidth()+1e-12 {
				t.Fatalf("R(%g,%g) = %g out of (0, kappa*subW]", x, y, r)
			}
		}
	}
}

func TestSamplePositiveInsideBunch(t *testing.T) {
	h, _ := buildHistory(8, 64, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	// Sampling at tiny radius looks at (nearly) the current bunch centre.
	v := p.Sample(cx, cy, 0.05*p.SubWidth(), -math.Pi/2, nil)
	if v <= 0 {
		t.Fatalf("retarded density at bunch centre = %g, want positive", v)
	}
	// Far outside all charge the sample must vanish.
	if v := p.Sample(cx, cy+10, 0.05*p.SubWidth(), 0, nil); v != 0 {
		t.Fatalf("sample far from charge = %g", v)
	}
}

func TestSampleRecordsStencilLoads(t *testing.T) {
	h, _ := buildHistory(8, 64, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	dev := gpusim.New(gpusim.KeplerK40())
	var loads int
	dev.Run(gpusim.Launch{
		Name: "stencil", Blocks: 1, ThreadsPerBlock: 1,
		Kernel: func(l *gpusim.Lane, b, th int) {
			l.Begin(0)
			p.Sample(cx, cy, 0.5*p.SubWidth(), -math.Pi/2, l)
			loads = l.Units()
			_ = loads
		},
	})
	m := dev.Run(gpusim.Launch{
		Name: "stencil2", Blocks: 1, ThreadsPerBlock: 1,
		Kernel: func(l *gpusim.Lane, b, th int) {
			l.Begin(0)
			p.Sample(cx, cy, 0.5*p.SubWidth(), -math.Pi/2, l)
		},
	})
	if want := uint64(StencilLoads * 8); m.LoadReqBytes != want {
		t.Fatalf("stencil requested %d bytes, want %d (27 loads)", m.LoadReqBytes, want)
	}
}

func TestThetaWindowCoversCharge(t *testing.T) {
	h, _ := buildHistory(8, 64, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	// Wherever the integrand is nonzero, the window must be reported
	// non-empty (the window is a conservative superset of the support).
	for _, r := range []float64{0.3, 0.8, 1.7, 2.5} {
		rr := r * p.SubWidth()
		j := p.subregionOf(rr)
		t0, t1, ok := p.ThetaWindow(cx, cy, rr, j)
		sawCharge := false
		for k := 0; k < 64; k++ {
			th := -math.Pi + 2*math.Pi*float64(k)/64
			if p.Sample(cx, cy, rr, th, nil) != 0 {
				sawCharge = true
				if !ok || th < t0 || th > t1 {
					// The window may wrap; accept th +- 2pi inside it.
					if !(ok && (th+2*math.Pi >= t0 && th+2*math.Pi <= t1 ||
						th-2*math.Pi >= t0 && th-2*math.Pi <= t1)) {
						t.Fatalf("charge at r=%g theta=%g outside window [%g, %g] ok=%v", rr, th, t0, t1, ok)
					}
				}
			}
		}
		_ = sawCharge
	}
}

func TestSolvePointToleranceAndPattern(t *testing.T) {
	h, _ := buildHistory(8, 64, testParams())
	p := NewProblem(h, testParams())
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	res := p.SolvePoint(cx, cy)
	if res.I <= 0 {
		t.Fatalf("potential at bunch centre = %g, want positive", res.I)
	}
	if res.Err > p.Tol*float64(p.NumSub()) {
		t.Fatalf("error estimate %g exceeds budget", res.Err)
	}
	if !quadrature.IsSortedPartition(res.Partition) {
		t.Fatal("partition not sorted")
	}
	if len(res.Pattern) != p.NumSub() {
		t.Fatalf("pattern length %d", len(res.Pattern))
	}
	if res.Pattern.TotalPanels() <= 0 {
		t.Fatal("empty pattern at bunch centre")
	}
}

func TestSolveGridMatchesSolvePoint(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	src := h.At(7)
	target := grid.New(8, 8, 1, src.X0, src.Y0, src.DX*4, src.DY*4)
	results := p.SolveGrid(target, 0)
	for iy := 0; iy < 8; iy += 3 {
		for ix := 0; ix < 8; ix += 3 {
			x, y := target.Point(ix, iy)
			want := p.SolvePoint(x, y)
			got := results[iy*8+ix]
			if math.Abs(got.I-want.I) > 1e-12*math.Max(1, math.Abs(want.I)) {
				t.Fatalf("SolveGrid(%d,%d) = %g, SolvePoint = %g", ix, iy, got.I, want.I)
			}
			if target.At(ix, iy, 0) != got.I {
				t.Fatal("target grid not filled")
			}
		}
	}
}

func TestPotentialScalesWithCharge(t *testing.T) {
	// Doubling the deposited charge must double the linear functional.
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	base := p.SolvePoint(cx, cy).I

	h2 := grid.NewHistory(params.Kappa + 4)
	for s := 0; s <= 7; s++ {
		orig := h.At(s)
		if orig == nil {
			continue
		}
		c := orig.Clone()
		for i := range c.Data {
			c.Data[i] *= 2
		}
		h2.Push(c)
	}
	p2 := NewProblem(h2, params)
	doubled := p2.SolvePoint(cx, cy).I
	if math.Abs(doubled-2*base) > 1e-3*math.Abs(2*base) {
		t.Fatalf("linearity violated: %g vs 2*%g", doubled, base)
	}
}

func TestObservedPatternZeroesInvisibleSubregions(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 64, params)
	p := NewProblem(h, params)
	g := h.At(7)
	// A point far ahead of the bunch in y sees no charge at small radii.
	x := g.X0 + float64(g.NX-1)*g.DX/2
	y := g.Y0 + float64(g.NY-1)*g.DY // top edge
	part := quadrature.UniformPartition(0, p.R(x, y), 8)
	pat := p.AppendObservedPattern(nil, x, y, part)
	if len(pat) != p.NumSub() {
		t.Fatalf("pattern length %d", len(pat))
	}
	// The full panel count must be preserved in visible subregions: sum of
	// nonzero entries <= panels.
	var sum float64
	for _, v := range pat {
		sum += v
	}
	if sum > 8 {
		t.Fatalf("pattern counts %v exceed panel count", pat)
	}
}

// AppendObservedPattern must match the seed's allocating form bit for bit
// at every probe point and partition shape, keep dst's prefix, and fill a
// slab in place when dst has the capacity.
func TestAppendObservedPatternMatchesClosure(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 48, params)
	p := NewProblem(h, params)
	n := p.NumSub()
	slab := make([]float64, 0, 2*n)
	for _, pt := range sweepPoints(h.At(7)) {
		x, y := pt[0], pt[1]
		r := p.R(x, y)
		for _, part := range [][]float64{
			quadrature.UniformPartition(0, r, 1),
			quadrature.UniformPartition(0, r, 8),
			quadrature.UniformPartition(0, r, 5*n+3),
			p.SolvePoint(x, y).Partition,
			nil,
		} {
			want := p.observedPatternClosure(x, y, part)
			got := p.AppendObservedPattern(append(slab[:0], -7), x, y, part)
			if len(got) != n+1 || got[0] != -7 {
				t.Fatalf("(%g,%g): prefix or length lost: %v", x, y, got)
			}
			if &got[0] != &slab[:1][0] {
				t.Fatalf("(%g,%g): pattern did not fill dst's backing array", x, y)
			}
			for j := range want {
				if math.Float64bits(got[1+j]) != math.Float64bits(want[j]) {
					t.Fatalf("(%g,%g) %d panels: pattern %v, closure %v", x, y, len(part)-1, got[1:], want)
				}
			}
		}
	}
}

func TestWeightSingularityRegularised(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	w0 := p.Weight(0)
	if math.IsInf(w0, 0) || math.IsNaN(w0) {
		t.Fatalf("weight at r=0 is %g", w0)
	}
	if p.Weight(p.SubWidth()) >= w0 {
		t.Fatal("weight must decay with radius")
	}
}

func TestAlphaCountsInnerReferences(t *testing.T) {
	params := testParams()
	params.Inner = quadrature.Simpson
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	if got := p.Alpha(); got != 5*3*27 {
		t.Fatalf("Alpha = %d, want %d", got, 5*3*27)
	}
}

// cloneGeometry builds a zeroed grid matching src's physical extent at a
// different resolution.
func cloneGeometry(src *grid.Grid, nx, ny int) *grid.Grid {
	x0, y0, x1, y1 := src.Bounds()
	return grid.New(nx, ny, 1, x0, y0, (x1-x0)/float64(nx-1), (y1-y0)/float64(ny-1))
}

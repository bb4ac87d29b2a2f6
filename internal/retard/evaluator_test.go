package retard

import (
	"fmt"
	"math"
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/quadrature"
)

// sweepPoints returns a deterministic scatter across the target grid:
// centre, edges, corners and a coarse interior lattice, so the evaluator is
// exercised through full-circle windows, narrow cones and empty windows.
func sweepPoints(g *grid.Grid) [][2]float64 {
	var pts [][2]float64
	for iy := 0; iy < g.NY; iy += 9 {
		for ix := 0; ix < g.NX; ix += 9 {
			x, y := g.Point(ix, iy)
			pts = append(pts, [2]float64{x, y})
		}
	}
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	pts = append(pts, [2]float64{cx, cy})
	pts = append(pts, [2]float64{g.X0, cy}, [2]float64{cx, g.Y0})
	return pts
}

func samePointResult(t *testing.T, tag string, got, want PointResult) {
	t.Helper()
	if got.I != want.I || got.Err != want.Err || got.Evals != want.Evals {
		t.Fatalf("%s: evaluator (I=%v Err=%v Evals=%d) != closure (I=%v Err=%v Evals=%d)",
			tag, got.I, got.Err, got.Evals, want.I, want.Err, want.Evals)
	}
	if len(got.Partition) != len(want.Partition) {
		t.Fatalf("%s: partition length %d != %d", tag, len(got.Partition), len(want.Partition))
	}
	for i := range got.Partition {
		if got.Partition[i] != want.Partition[i] {
			t.Fatalf("%s: partition[%d] = %v != %v", tag, i, got.Partition[i], want.Partition[i])
		}
	}
	if len(got.Pattern) != len(want.Pattern) {
		t.Fatalf("%s: pattern length %d != %d", tag, len(got.Pattern), len(want.Pattern))
	}
	for i := range got.Pattern {
		if got.Pattern[i] != want.Pattern[i] {
			t.Fatalf("%s: pattern[%d] = %v != %v", tag, i, got.Pattern[i], want.Pattern[i])
		}
	}
}

// TestEvaluatorMatchesClosureSolvePoint is the core equivalence guarantee:
// the allocation-free panel evaluator must reproduce the closure-based
// reference bitwise — same integral, same error estimate, same evaluation
// count, same partition and same observed pattern — for every probe point
// and for every inner Newton-Cotes rule.
func TestEvaluatorMatchesClosureSolvePoint(t *testing.T) {
	for _, inner := range []quadrature.NewtonCotesOrder{quadrature.Trapezoid, quadrature.Simpson, quadrature.Boole} {
		params := testParams()
		params.Inner = inner
		h, _ := buildHistory(8, 48, params)
		p := NewProblem(h, params)
		e := NewEvaluator(p)
		g := h.At(7)
		for _, pt := range sweepPoints(g) {
			want := p.SolvePointClosure(pt[0], pt[1])
			e.ResetScratch()
			got := e.SolvePoint(pt[0], pt[1])
			samePointResult(t, fmt.Sprintf("inner=%d point (%g,%g)", inner, pt[0], pt[1]), got, want)
		}
	}
}

// buildShiftedHistory is buildHistory with every grid's x origin moved by
// a third of a cell per step, so consecutive grids do not share an x axis
// and the evaluator takes its per-plane stencil branch.
func buildShiftedHistory(steps, nx int, params Params) *grid.History {
	h, _ := buildHistory(steps, nx, params)
	out := grid.NewHistory(params.Kappa + 4)
	for s := 0; s < steps; s++ {
		g := h.At(s)
		if g == nil {
			continue
		}
		g.X0 += float64(s) * g.DX / 3
		out.Push(g)
	}
	return out
}

// TestEvaluatorLaneMetricsMatchClosure drives the closure integrand and
// the bound evaluator through identical radius probes on two fresh
// simulated devices and requires identical values AND identical simulated
// load/flop accounting (the kernels' cost model must not shift when the
// evaluator is swapped in). Each probe point is one lane of a warp, so the
// evaluator's Load3x3 footprints go through the grouped replay while the
// closure records single loads. Both stencil branches are covered: a
// history whose grids share the x axis, and one whose grids shift in x.
// Probe points near the grid edge put samples where one temporal plane
// rejects what another accepts; the Boole rule sends samples toward every
// edge, the default trapezoid rule only toward -x.
func TestEvaluatorLaneMetricsMatchClosure(t *testing.T) {
	fixed, _ := buildHistory(8, 48, testParams())
	histories := []struct {
		name    string
		h       *grid.History
		sharedX bool
	}{
		{"fixed-x", fixed, true},
		{"shifted-x", buildShiftedHistory(8, 48, testParams()), false},
	}
	radii := []float64{0.05, 0.3, 0.45, 0.9, 1.1, 1.7, 2.2, 2.9, 3.6}
	for _, hc := range histories {
		for _, inner := range []quadrature.NewtonCotesOrder{quadrature.Trapezoid, quadrature.Boole} {
			t.Run(fmt.Sprintf("%s/inner=%d", hc.name, inner), func(t *testing.T) {
				params := testParams()
				params.Inner = inner
				p := NewProblem(hc.h, params)
				e := NewEvaluator(p)
				for j := range e.sub {
					if s := &e.sub[j]; s.ok && s.sharedX != hc.sharedX {
						t.Fatalf("subregion %d: sharedX = %v, want %v", j, s.sharedX, hc.sharedX)
					}
				}
				g := hc.h.At(7)
				x0, y0, x1, y1 := g.Bounds()
				cx, cy := 0.5*(x0+x1), 0.5*(y0+y1)
				edge := 0.7 * g.DX
				points := [][2]float64{
					{cx, cy},
					{x0 + edge, cy}, {x1 - edge, cy}, {cx, y0 + edge}, {cx, y1 - edge},
					{x0 + edge, y0 + edge}, {x1 - edge, y1 - edge},
					{x0 + 2*edge, y1 - 3*edge}, {x1 - 3*edge, y0 + 2*edge},
				}

				run := func(mk func(lane *gpusim.Lane, x, y float64) quadrature.Func) (gpusim.Metrics, []float64) {
					dev := gpusim.New(gpusim.KeplerK40())
					vals := make([]float64, len(points)*len(radii))
					m := dev.Run(gpusim.Launch{
						Name: "probe", Blocks: 1, ThreadsPerBlock: len(points), ColdCaches: true,
						Kernel: func(lane *gpusim.Lane, b, th int) {
							lane.Begin(0)
							f := mk(lane, points[th][0], points[th][1])
							for i, r := range radii {
								vals[th*len(radii)+i] = f(r * p.SubWidth())
							}
						},
					})
					return m, vals
				}

				mc, vc := run(func(l *gpusim.Lane, x, y float64) quadrature.Func { return p.Integrand(x, y, l) })
				me, ve := run(func(l *gpusim.Lane, x, y float64) quadrature.Func { e.Bind(x, y, l); return e.Func() })
				for i := range vc {
					if vc[i] != ve[i] {
						pt := points[i/len(radii)]
						t.Fatalf("integrand at (%g,%g) r=%g: closure %v != evaluator %v",
							pt[0], pt[1], radii[i%len(radii)], vc[i], ve[i])
					}
				}
				if mc != me {
					t.Fatalf("simulated metrics diverge:\nclosure:   %+v\nevaluator: %+v", mc, me)
				}
				if n := splitSamples(e, points, radii, p.SubWidth()); n == 0 {
					t.Fatal("no probe sample is accepted by some temporal planes and rejected by others")
				}
			})
		}
	}
}

// splitSamples counts the angular samples of the probes that some of
// their three temporal planes accept and others reject, judged by whether
// planeFootprint records the plane's stencil.
func splitSamples(e *Evaluator, points [][2]float64, radii []float64, subW float64) int {
	var lane gpusim.Lane
	accepts := func(pl *plane, sx, sy float64) bool {
		before := lane.LaneFlops()
		planeFootprint(&lane, pl, sx, sy)
		return lane.LaneFlops() > before
	}
	n := 0
	for _, pt := range points {
		e.Bind(pt[0], pt[1], nil)
		for _, rr := range radii {
			r := rr * subW
			j := e.p.subregionOf(r)
			s := &e.sub[j]
			t0, t1, ok := e.window(j, r)
			if !ok || !s.ok {
				continue
			}
			h := (t1 - t0) / float64(len(e.weights)-1)
			for i := range e.weights {
				sx := pt[0] + r*math.Cos(t0+float64(i)*h)
				sy := pt[1] + r*math.Sin(t0+float64(i)*h)
				am, a0, ap := accepts(&s.pm, sx, sy), accepts(&s.p0, sx, sy), accepts(&s.pp, sx, sy)
				if am != a0 || a0 != ap {
					n++
				}
			}
		}
	}
	return n
}

// TestGridSolverDeterministicAcrossWorkers requires bitwise-identical
// grids and point results regardless of the worker count — the row-band
// tiling assigns disjoint rows and each point is evaluated independently.
func TestGridSolverDeterministicAcrossWorkers(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	src := h.At(7)

	solve := func(workers int) (*grid.Grid, []float64) {
		target := cloneGeometry(src, 24, 24)
		s := GridSolver{Workers: workers}
		results := s.Solve(p, target, 0)
		vals := make([]float64, 0, 2*len(results))
		for _, r := range results {
			vals = append(vals, r.I, r.Err)
		}
		return target, vals
	}

	refGrid, refVals := solve(1)
	for _, w := range []int{2, 3, 8} {
		tg, vals := solve(w)
		for i := range refGrid.Data {
			if tg.Data[i] != refGrid.Data[i] {
				t.Fatalf("workers=%d: grid datum %d = %v != %v", w, i, tg.Data[i], refGrid.Data[i])
			}
		}
		for i := range refVals {
			if vals[i] != refVals[i] {
				t.Fatalf("workers=%d: result %d = %v != %v", w, i, vals[i], refVals[i])
			}
		}
	}
}

// TestEvaluatorSolvePointZeroAlloc is the headline perf guarantee of the
// panel evaluator: after warm-up, a full adaptive rp-integral evaluation
// allocates nothing.
func TestEvaluatorSolvePointZeroAlloc(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 48, params)
	p := NewProblem(h, params)
	g := h.At(7)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2
	e := NewEvaluator(p)
	for i := 0; i < 3; i++ { // warm scratch: arena chunks, stack, tables
		e.ResetScratch()
		e.SolvePoint(cx, cy)
	}
	allocs := testing.AllocsPerRun(20, func() {
		e.ResetScratch()
		e.SolvePoint(cx, cy)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SolvePoint allocates %.1f objects/point, want 0", allocs)
	}
}

// TestGridSolverSteadyStateAllocs bounds the whole-grid steady state: a
// reused GridSolver may pay a handful of fixed-cost allocations per Solve
// (worker fan-out closure), but nothing per point.
func TestGridSolverSteadyStateAllocs(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	src := h.At(7)
	target := cloneGeometry(src, 16, 16)
	s := GridSolver{Workers: 1}
	s.Solve(p, target, 0)
	allocs := testing.AllocsPerRun(5, func() {
		s.Solve(p, target, 0)
	})
	if allocs > 8 {
		t.Fatalf("steady-state Solve allocates %.1f objects for %d points, want <= 8",
			allocs, target.NX*target.NY)
	}
}

// TestThetaWindowEdgeCases covers the geometric branch structure shared by
// ThetaWindow and the evaluator's cached window: the full-circle branch,
// radii outside [dmin, dmax], the asin argument at the halfDiag boundary,
// out-of-range subregion indices and empty charge support.
func TestThetaWindowEdgeCases(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 48, params)
	p := NewProblem(h, params)
	b := p.support[0]
	if b.empty {
		t.Fatal("fixture subregion 0 has empty support")
	}
	cx, cy := 0.5*(b.x0+b.x1), 0.5*(b.y0+b.y1)
	halfDiag := 0.5 * math.Hypot(b.x1-b.x0, b.y1-b.y0)

	// Point inside the charge box: full circle, whatever the radius.
	_, dmax := boxDistRange(cx, cy, b)
	if t0, t1, ok := p.ThetaWindow(cx, cy, 0.5*dmax, 0); !ok || t0 != -math.Pi || t1 != math.Pi {
		t.Fatalf("inside-box window = [%g, %g] ok=%v, want full circle", t0, t1, ok)
	}

	// Radii outside [dmin, dmax] from a distant point: no window.
	fx, fy := b.x1+10*halfDiag, cy
	dmin, dmax := boxDistRange(fx, fy, b)
	if _, _, ok := p.ThetaWindow(fx, fy, 0.5*dmin, 0); ok {
		t.Fatal("window reported below dmin")
	}
	if _, _, ok := p.ThetaWindow(fx, fy, 2*dmax, 0); ok {
		t.Fatal("window reported beyond dmax")
	}

	// r marginally above halfDiag from outside the box: the cone branch
	// with asin argument at (just below) 1 — the clamp must keep the
	// window finite, non-degenerate and centred on the box direction.
	ex, ey := cx, cy+1.5*halfDiag
	dmin, dmax = boxDistRange(ex, ey, b)
	r := math.Nextafter(halfDiag, math.Inf(1))
	if r < dmin || r > dmax {
		t.Fatalf("fixture assumption broken: r=%g outside [%g, %g]", r, dmin, dmax)
	}
	t0, t1, ok := p.ThetaWindow(ex, ey, r, 0)
	if !ok {
		t.Fatal("boundary radius lost its window")
	}
	if math.IsNaN(t0) || math.IsNaN(t1) || t1 <= t0 || t1-t0 > 2*math.Pi {
		t.Fatalf("boundary window [%g, %g] degenerate", t0, t1)
	}
	if center := 0.5 * (t0 + t1); math.Abs(center-math.Atan2(cy-ey, cx-ex)) > 1e-12 {
		t.Fatalf("boundary window centred at %g, want box direction %g", center, math.Atan2(cy-ey, cx-ex))
	}

	// Subregion indices outside the support list: no window.
	if _, _, ok := p.ThetaWindow(cx, cy, halfDiag, -1); ok {
		t.Fatal("window for j=-1")
	}
	if _, _, ok := p.ThetaWindow(cx, cy, halfDiag, p.NumSub()); ok {
		t.Fatal("window for j=NumSub")
	}
}

// TestEvaluatorEmptySupport pushes a history of zeroed grids: every
// subregion has empty support, every window is empty, and the evaluator
// agrees bitwise with the closure on the all-zero integral.
func TestEvaluatorEmptySupport(t *testing.T) {
	params := testParams()
	h := grid.NewHistory(params.Kappa + 4)
	for s := 0; s < 8; s++ {
		g := grid.New(32, 32, grid.MomentComponents, -1e-4, -1e-4, 2e-4/31, 2e-4/31)
		g.Step = s
		h.Push(g)
	}
	p := NewProblem(h, params)
	for j := 0; j < p.NumSub(); j++ {
		if _, _, ok := p.ThetaWindow(0, 0, (float64(j)+0.5)*p.SubWidth(), j); ok {
			t.Fatalf("empty-support subregion %d reported a window", j)
		}
	}
	if r := p.R(0, 0); r != p.SubWidth() {
		t.Fatalf("R on empty history = %g, want one subregion %g", r, p.SubWidth())
	}
	want := p.SolvePointClosure(0, 0)
	got := NewEvaluator(p).SolvePoint(0, 0)
	samePointResult(t, "empty support", got, want)
	if got.I != 0 {
		t.Fatalf("integral over empty support = %g", got.I)
	}
}

// TestWeightFastPathMatchesPow pins the accuracy of the Cbrt fast path
// the CSR exponents take: within a few ulp of the seed's math.Pow across
// the weight's operating range.
func TestWeightFastPathMatchesPow(t *testing.T) {
	params := testParams() // WeightExp 1/3: the weightCbrt fast path
	h, _ := buildHistory(8, 32, params)
	p := NewProblem(h, params)
	for i := 0; i <= 10000; i++ {
		r := p.SubWidth() * 5 * float64(i) / 10000
		x := (r + 0.05*p.SubWidth()) / p.SubWidth()
		want := math.Pow(x, -1.0/3)
		got := p.Weight(r)
		if math.Abs(got-want) > 4e-16*want {
			t.Fatalf("Weight(%g) = %v, Pow = %v (rel err %g)", r, got, want, math.Abs(got-want)/want)
		}
	}
}

// TestEvaluatorReset re-targets one evaluator at a different problem and
// checks it matches a fresh evaluator bitwise — the kernels' per-SM pools
// rely on Reset for cross-step reuse.
func TestEvaluatorReset(t *testing.T) {
	params := testParams()
	h1, _ := buildHistory(8, 48, params)
	p1 := NewProblem(h1, params)
	h2, _ := buildHistory(10, 32, params)
	p2 := NewProblem(h2, params)
	g := h2.At(9)
	cx := g.X0 + float64(g.NX-1)*g.DX/2
	cy := g.Y0 + float64(g.NY-1)*g.DY/2

	e := NewEvaluator(p1)
	e.SolvePoint(cx, cy) // state from the first problem
	e.Reset(p2)
	e.ResetScratch()
	got := e.SolvePoint(cx, cy)
	want := NewEvaluator(p2).SolvePoint(cx, cy)
	samePointResult(t, "after Reset", got, want)
}

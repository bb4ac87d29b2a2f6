package retard

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"beamdyn/internal/access"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/phys"
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

// The seed's closure path — Integrand, Sample and sampleGrid below, with
// SolvePointClosure and observedPatternClosure — lives here as the
// equivalence reference for the panel evaluator: the evaluator and the
// kernels' lanes must reproduce its integrals, partitions, patterns and
// simulated-lane traces bit for bit.

// Sample evaluates the retarded moment value f^(p)(r, θ, t′) by the
// 27-point stencil: quadratic temporal interpolation across D_{i-1}, D_i,
// D_{i+1} and a 3×3 quadratic spatial stencil on each. When lane is
// non-nil every grid read is recorded as a simulated global load and the
// arithmetic as flops.
func (p *Problem) Sample(x, y, r, theta float64, lane *gpusim.Lane) float64 {
	j := p.subregionOf(r)
	i := p.Step - j - 1
	gm, g0, gp := p.Hist.At(i-1), p.Hist.At(i), p.Hist.At(i+1)
	if g0 == nil {
		return 0
	}
	if gm == nil {
		gm = g0
	}
	if gp == nil {
		gp = g0
	}
	// Retarded time fraction within [iΔt, (i+1)Δt].
	tp := float64(p.Step) - r/p.subW // retarded time in units of Δt
	tau := tp - float64(i)
	// Quadratic Lagrange weights at nodes -1, 0, +1.
	wm := 0.5 * tau * (tau - 1)
	w0 := 1 - tau*tau
	wp := 0.5 * tau * (tau + 1)

	sx := x + r*math.Cos(theta)
	sy := y + r*math.Sin(theta)
	v := wm*p.sampleGrid(gm, i-1, sx, sy, lane) +
		w0*p.sampleGrid(g0, i, sx, sy, lane) +
		wp*p.sampleGrid(gp, i+1, sx, sy, lane)
	if lane != nil {
		lane.Flops(14) // trig, weights and temporal blend
	}
	return v
}

// sampleGrid reads the 3×3 quadratic (TSC) stencil of component
// p.Component on grid g around the physical point (sx, sy).
func (p *Problem) sampleGrid(g *grid.Grid, step int, sx, sy float64, lane *gpusim.Lane) float64 {
	fx, fy := g.Cell(sx, sy)
	ix := int(math.Round(fx))
	iy := int(math.Round(fy))
	if ix < 1 || iy < 1 || ix > g.NX-2 || iy > g.NY-2 {
		return 0
	}
	dx := fx - float64(ix)
	dy := fy - float64(iy)
	wx := [3]float64{0.5 * (0.5 - dx) * (0.5 - dx), 0.75 - dx*dx, 0.5 * (0.5 + dx) * (0.5 + dx)}
	wy := [3]float64{0.5 * (0.5 - dy) * (0.5 - dy), 0.75 - dy*dy, 0.5 * (0.5 + dy) * (0.5 + dy)}
	var v float64
	off := p.Component * g.NX * g.NY
	for oy := 0; oy < 3; oy++ {
		row := off + (iy+oy-1)*g.NX + ix - 1
		w := wy[oy]
		for ox := 0; ox < 3; ox++ {
			v += w * wx[ox] * g.Data[row+ox]
			if lane != nil {
				addr, _ := p.Hist.Address(step, ix+ox-1, iy+oy-1, p.Component)
				lane.Load(addr)
			}
		}
	}
	if lane != nil {
		lane.Flops(30) // stencil weights and accumulation
	}
	return v
}

// Integrand returns the outer-dimension integrand at radius r: the inner
// Newton-Cotes angular integral times the radial weight. The returned
// function closes over (x, y) and the optional lane recorder — it is what
// the quadrature package integrates radially.
func (p *Problem) Integrand(x, y float64, lane *gpusim.Lane) quadrature.Func {
	return func(r float64) float64 {
		j := p.subregionOf(r)
		t0, t1, ok := p.ThetaWindow(x, y, r, j)
		if lane != nil {
			lane.Flops(8) // window test
		}
		if !ok {
			return 0
		}
		inner := quadrature.NewtonCotes(func(theta float64) float64 {
			return p.Sample(x, y, r, theta, lane)
		}, t0, t1, p.Inner)
		if lane != nil {
			lane.Flops(2 * p.Inner.Points())
		}
		return p.Weight(r) * inner
	}
}

// observedPatternClosure is the seed's ObservedPattern: the reference for
// AppendObservedPattern and the evaluator's observedPattern.
func (p *Problem) observedPatternClosure(x, y float64, partition []float64) access.Pattern {
	n := p.NumSub()
	pat := make(access.Pattern, n)
	visible := make([]bool, n)
	for i := 0; i+1 < len(partition); i++ {
		mid := 0.5 * (partition[i] + partition[i+1])
		j := p.subregionOf(mid)
		pat[j]++
		if !visible[j] {
			if _, _, ok := p.ThetaWindow(x, y, mid, j); ok {
				visible[j] = true
			}
		}
	}
	for j := range pat {
		if !visible[j] {
			pat[j] = 0
		}
	}
	return pat
}

// SolvePointClosure is the seed's closure-based evaluation path: Integrand
// over recursive AdaptiveSimpson, with fresh slices per point. It is the
// equivalence reference for the panel evaluator — Evaluator.SolvePoint
// must reproduce it bit for bit — and the baseline of
// BenchmarkEvaluatorFloor.
func (p *Problem) SolvePointClosure(x, y float64) PointResult {
	f := p.Integrand(x, y, nil)
	r := p.R(x, y)
	n := p.NumSub()
	res := PointResult{Partition: []float64{0}}
	for j := 0; j < n; j++ {
		a := float64(j) * p.subW
		if a >= r {
			break
		}
		b := math.Min(a+p.subW, r)
		sub := quadrature.AdaptiveSimpson(f, a, b, p.Tol, p.MaxDepth)
		res.I += sub.I
		res.Err += sub.Err
		res.Evals += sub.Evals
		res.Partition = append(res.Partition, sub.Partition[1:]...)
	}
	res.Pattern = p.observedPatternClosure(x, y, res.Partition)
	return res
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

				var probe []float64
				for _, r := range radii {
					probe = append(probe, r*p.SubWidth())
				}
				lanesMatchClosure(t, p, e, points, probe)
				if n := splitSamples(e, points, radii, p.SubWidth()); n == 0 {
					t.Fatal("no probe sample is accepted by some temporal planes and rejected by others")
				}
			})
		}
	}
}

// endpointHistories are the two fixtures of the coincident-endpoint
// tests: step 7's bunch centred on y = 0, so its rows straddle y = 0 and
// r·sin(±π) moves the last bits of y at rows near it, and the same bunch
// translated 5 cm away, where it never does. The bunch is 0.3 times the
// standard one, so its support boxes' half-diagonals (~80 µm) fall below
// the largest radii (κ·cΔt = 200 µm) and points outside a box see narrow
// cones.
func endpointHistories(params Params) []struct {
	name string
	h    *grid.History
} {
	const k = 0.3
	_, beam := buildHistory(1, 8, params)
	straddle, _ := buildHistoryAt(8, 48, 48, params, -7*beam.Beta()*phys.C*params.Dt, k)
	far, _ := buildHistoryAt(8, 48, 48, params, 0.05, k)
	return []struct {
		name string
		h    *grid.History
	}{{"straddle", straddle}, {"far", far}}
}

// endpointKind sorts the integrand at (x, y, r) by what inner does with
// its last abscissa: reused (the full circle's endpoints coincide bit for
// bit), computed (full circle, endpoints differ), narrow (a cone window)
// or none (no window, or no middle grid). The endpoints are recomputed
// here with the expressions the evaluator's full-circle table uses.
func endpointKind(p *Problem, x, y, r float64) string {
	j := p.subregionOf(r)
	t0, t1, ok := p.ThetaWindow(x, y, r, j)
	switch {
	case !ok || p.Hist.At(p.Step-j-1) == nil:
		return "none"
	case t0 != -math.Pi || t1 != math.Pi:
		return "narrow"
	}
	n := p.Inner.Points()
	h := (math.Pi - (-math.Pi)) / float64(n-1)
	last := -math.Pi + float64(n-1)*h
	sx0, sy0 := x+r*math.Cos(-math.Pi), y+r*math.Sin(-math.Pi)
	sx1, sy1 := x+r*math.Cos(last), y+r*math.Sin(last)
	if math.Float64bits(sx0) == math.Float64bits(sx1) && math.Float64bits(sy0) == math.Float64bits(sy1) {
		return "reused"
	}
	return "computed"
}

// TestEvaluatorCoincidentEndpoints covers the full circle's shared
// endpoint sample for the trapezoid, Simpson and Boole rules on three
// kinds of point: rows near y = 0, where y + r·sin(±π) differ and both
// endpoints are computed; rows far from y = 0, where they coincide and
// the last reuses the first; and points outside the charge support, whose
// narrow-cone windows never reuse. SolvePoint must equal the closure bit
// for bit, and the lane-bound integrand must give the closure's values,
// flops per probe and ==-equal Metrics. The probes are sorted by
// endpointKind, and the test fails unless every kind occurred.
func TestEvaluatorCoincidentEndpoints(t *testing.T) {
	for _, inner := range []quadrature.NewtonCotesOrder{quadrature.Trapezoid, quadrature.Simpson, quadrature.Boole} {
		params := testParams()
		params.Inner = inner
		for _, hc := range endpointHistories(params) {
			t.Run(fmt.Sprintf("%s/inner=%d", hc.name, inner), func(t *testing.T) {
				p := NewProblem(hc.h, params)
				e := NewEvaluator(p)
				g := hc.h.At(7)
				x0, y0, x1, y1 := g.Bounds()
				cx, cy := 0.5*(x0+x1), 0.5*(y0+y1)
				w, ht := x1-x0, y1-y0
				points := append(sweepPoints(g),
					[2]float64{cx, 0}, [2]float64{x0 + 0.3*w, 0}, [2]float64{cx, 1e-9},
					[2]float64{x1 + w, cy}, [2]float64{cx, y1 + ht}, [2]float64{x0 - 0.5*w, y0 - 0.5*ht})
				kinds := map[string]int{}
				var radii []float64
				for k := 1; k <= 64; k++ {
					radii = append(radii, float64(k)/16*p.SubWidth())
				}
				for _, pt := range points {
					want := p.SolvePointClosure(pt[0], pt[1])
					e.ResetScratch()
					got := e.SolvePoint(pt[0], pt[1])
					samePointResult(t, fmt.Sprintf("point (%g,%g)", pt[0], pt[1]), got, want)
					for _, r := range want.Partition[1:] {
						kinds[endpointKind(p, pt[0], pt[1], r)]++
					}
					for _, r := range radii {
						kinds[endpointKind(p, pt[0], pt[1], r)]++
					}
				}

				lanesMatchClosure(t, p, e, points, radii)

				t.Logf("probes by kind: %v", kinds)
				if kinds["reused"] == 0 || kinds["narrow"] == 0 {
					t.Fatalf("probes by kind %v: want reused and narrow-cone probes", kinds)
				}
				switch hc.name {
				case "straddle":
					if kinds["computed"] == 0 {
						t.Fatalf("probes by kind %v: no full-circle probe near y = 0 had distinct endpoints", kinds)
					}
				case "far":
					if kinds["computed"] != 0 {
						t.Fatalf("probes by kind %v: endpoints 5 cm from y = 0 differ", kinds)
					}
				}
			})
		}
	}
}

// TestEvaluatorResetClearsRowMemo solves a point, then re-targets the
// evaluator, its y-row memos holding that point's rows, at a problem whose
// grids moved a fraction of a cell in y or one with a different NY, and
// solves the point again: the same sample rows then map to other grid
// rows, weights and range tests, so a memo that survived Reset would
// change the result. It must match a fresh evaluator, and the closure,
// bit for bit.
func TestEvaluatorResetClearsRowMemo(t *testing.T) {
	params := testParams()
	h, _ := buildHistory(8, 48, params)
	g := h.At(7)
	shifted, _ := buildHistoryAt(8, 48, 48, params, 0.37*g.DY, 1)
	shorter, _ := buildHistoryAt(8, 48, 40, params, 0, 1)
	x0, _, x1, y1 := g.Bounds()
	points := append(sweepPoints(g), [2]float64{0.5 * (x0 + x1), y1 - 1.2*g.DY}, [2]float64{x0 + 3*g.DX, y1 - 0.6*g.DY})

	base := NewProblem(h, params)
	e := NewEvaluator(base)
	for _, hc := range []struct {
		name string
		h    *grid.History
	}{{"moved in y", shifted}, {"other NY", shorter}} {
		p := NewProblem(hc.h, params)
		fresh := NewEvaluator(p)
		for _, pt := range points {
			tag := fmt.Sprintf("%s, point (%g,%g)", hc.name, pt[0], pt[1])
			e.Reset(base)
			e.ResetScratch()
			e.SolvePoint(pt[0], pt[1])
			e.Reset(p)
			e.ResetScratch()
			fresh.ResetScratch()
			want := fresh.SolvePoint(pt[0], pt[1])
			samePointResult(t, tag+" vs fresh", e.SolvePoint(pt[0], pt[1]), want)
			samePointResult(t, tag+" vs closure", want, p.SolvePointClosure(pt[0], pt[1]))
		}
	}
}

// lanesMatchClosure probes the closure integrand and the evaluator bound
// to lanes, one lane per point and every radius per lane, on two fresh
// simulated devices, and requires identical values, identical flops per
// probe and ==-equal Metrics: the evaluator's Load3x3 footprints go
// through the grouped replay while the closure records single loads.
func lanesMatchClosure(t *testing.T, p *Problem, e *Evaluator, points [][2]float64, radii []float64) {
	t.Helper()
	run := func(mk func(lane *gpusim.Lane, x, y float64) quadrature.Func) (gpusim.Metrics, []float64, []uint64) {
		dev := gpusim.New(gpusim.KeplerK40())
		vals := make([]float64, len(points)*len(radii))
		flops := make([]uint64, len(vals))
		m := dev.Run(gpusim.Launch{
			Name: "probe", Blocks: 1, ThreadsPerBlock: len(points), ColdCaches: true,
			Kernel: func(lane *gpusim.Lane, b, th int) {
				lane.Begin(0)
				f := mk(lane, points[th][0], points[th][1])
				for i, r := range radii {
					before := lane.LaneFlops()
					vals[th*len(radii)+i] = f(r)
					flops[th*len(radii)+i] = lane.LaneFlops() - before
				}
			},
		})
		return m, vals, flops
	}
	mc, vc, fc := run(func(l *gpusim.Lane, x, y float64) quadrature.Func { return p.Integrand(x, y, l) })
	me, ve, fe := run(func(l *gpusim.Lane, x, y float64) quadrature.Func { e.Bind(x, y, l); return e.Func() })
	for i := range vc {
		if vc[i] != ve[i] || fc[i] != fe[i] {
			pt := points[i/len(radii)]
			t.Fatalf("integrand at (%g,%g) r=%g: closure %v (%d flops) != evaluator %v (%d flops)",
				pt[0], pt[1], radii[i%len(radii)], vc[i], fc[i], ve[i], fe[i])
		}
	}
	if mc != me {
		t.Fatalf("simulated metrics diverge:\nclosure:   %+v\nevaluator: %+v", mc, me)
	}
}

// splitSamples counts the angular samples of the probes that some of
// their three temporal planes accept and others reject, judged by whether
// samplePlaneFast reports an in-range footprint for the plane.
func splitSamples(e *Evaluator, points [][2]float64, radii []float64, subW float64) int {
	accepts := func(pl *plane, sx, sy float64) bool {
		_, row := samplePlaneFast(pl, sx, sy, nil)
		return row >= 0
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

// TestRoundIntMatchesRound pins the stencil's rounding helper to
// int(math.Round(x)) wherever a stencil index can be accepted: the two are
// equal for |x| < 2^52, and beyond that (and for NaN and ±Inf) both must
// fall outside every index range [1, n-2] a grid tests. Checked on a table
// of halfway and boundary cases, then on 10^6 random values near and away
// from halfway points and on 10^6 random bit patterns.
func TestRoundIntMatchesRound(t *testing.T) {
	check := func(x float64) {
		got, want := roundInt(x), int(math.Round(x))
		if math.Abs(x) < 1<<52 {
			if got != want {
				t.Fatalf("roundInt(%v) = %d, int(math.Round) = %d", x, got, want)
			}
			return
		}
		for _, n := range []int{3, 4, 128, 1 << 20, 1 << 40} {
			if got >= 1 && got <= n-2 || want >= 1 && want <= n-2 {
				t.Fatalf("x = %v: roundInt %d or int(math.Round) %d passes the range test [1, %d]", x, got, want, n-2)
			}
		}
	}
	const p52, p53 = 1 << 52, 1 << 53
	belowHalf := 0.49999999999999994 // the largest float64 below 0.5
	exact := map[float64]int{0.5: 1, -0.5: -1, 1.5: 2, -1.5: -2, 2.5: 3, -2.5: -3,
		belowHalf: 0, -belowHalf: 0, p52 - 0.5: p52, -(p52 - 0.5): -p52}
	for x, want := range exact {
		if got := roundInt(x); got != want {
			t.Fatalf("roundInt(%v) = %d, want %d", x, got, want)
		}
		check(x)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), p52 + 1, p52 - 1, -(p52 + 1), -(p52 - 1),
		p52, -p52, p53, -p53, math.MaxFloat64, -math.MaxFloat64, 1 << 63, -(1 << 63), 1 << 64, -(1 << 64),
		math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64} {
		check(x)
	}
	rng := rand.New(rand.NewPCG(3, 41))
	for i := 0; i < 1_000_000; i++ {
		k := float64(rng.IntN(1<<20) - 1<<19)
		switch i % 4 {
		case 0: // uniform over a grid's index range
			check((rng.Float64() - 0.5) * 4096)
		case 1: // a halfway point or one ulp either side of it
			check(math.Nextafter(k+0.5, k+0.5+float64(rng.IntN(3)-1)))
		case 2: // an integer or one ulp either side of it
			check(math.Nextafter(k, k+float64(rng.IntN(3)-1)))
		default: // any magnitude below 2^52
			check((rng.Float64() - 0.5) * p53)
		}
		check(math.Float64frombits(rng.Uint64()))
	}
}

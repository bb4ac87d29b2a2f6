package retard

import (
	"math"

	"beamdyn/internal/access"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/quadrature"
)

// maxInnerPoints is the largest Newton-Cotes rule (Boole, 5 points); the
// evaluator's fixed-size trig tables are sized for it.
const maxInnerPoints = 5

// plane is one history grid's moment-component plane with everything the
// 27-point stencil needs hoisted out of the inner loop: the flat component
// slice, the grid geometry, and the simulated base address. addrStride is
// 0 for a grid that is not resident in the simulated address space, which
// reproduces the zero addresses the closure path records in that case.
//
// The plane also memoizes the y side of its stencil for the last sample
// row it saw, keyed on the exact bits of that row's sy: whether the row is
// in range, its flat offset (iy-1)·nx and its three weights. Every
// full-circle sample of a point has sy == y, and the lanes of a warp that
// lie in one grid row share y, so most samples skip the division,
// rounding and weights. The memo holds geometry only, never plane values,
// so re-pointing data (TileEvaluator) leaves it valid.
type plane struct {
	data       []float64
	nx, ny     int
	x0, y0     float64
	dx, dy     float64
	base       uintptr
	addrStride uintptr

	yKey          uint64 // Float64bits of the memoized sy
	yIn           bool   // the row is inside [1, ny-2]
	yRow          int    // (iy-1)·nx, when yIn
	wy0, wy1, wy2 float64
}

// subEval is the per-subregion state of an Evaluator: problem-lifetime
// plane and support geometry (set by Reset), point-lifetime window
// geometry (computed by bound on the subregion's first use after a Bind),
// and a window-lifetime cos/sin table keyed on the exact window bounds —
// full-circle windows are radius-independent, so near the bunch every
// radius of a subregion reuses one table.
type subEval struct {
	// Problem-lifetime (Reset).
	ok         bool // middle grid resident
	sharedX    bool // the three planes share x-axis geometry
	pm, p0, pp plane
	i          int // history step of the middle grid
	empty      bool
	cx, cy     float64 // support-box centre
	halfDiag   float64
	// Point-lifetime (bound): valid while bindGen is the evaluator's.
	bindGen     uint64
	dmin, dmax  float64
	center      float64
	centerValid bool // center computed for the bound point (lazy Atan2)
	fullAlways  bool // point inside the box: every radius sees the full circle
	// Window-lifetime trig cache.
	cacheValid bool
	cacheT0    float64
	cacheT1    float64
	cosTab     [maxInnerPoints]float64
	sinTab     [maxInnerPoints]float64
}

// Evaluator is the reusable, allocation-free panel evaluation core of the
// rp-integral: the arithmetic and simulated-lane accounting of the seed's
// closure path (Integrand under recursive AdaptiveSimpson, which the
// package tests keep, as Problem.Integrand and SolvePointClosure, for the
// equivalence reference and the baseline of BenchmarkEvaluatorFloor),
// restructured so that everything a point or a subregion can share is
// computed once and cached — theta-window geometry per (point, subregion) instead of per radius,
// history planes and component offsets hoisted out of the stencil, the
// Newton-Cotes weight table built once, cos/sin tables reused while the
// angular window repeats, each plane's stencil row reused while the
// sample row repeats, and each distinct radius or angular sample
// evaluated once. A bound evaluator produces bitwise-identical
// integrals, errors, partitions and access patterns, and records the
// identical load/flop sequence on a gpusim.Lane. An Evaluator is not safe
// for concurrent use — give each worker (or simulated SM) its own.
type Evaluator struct {
	p   *Problem
	sub []subEval

	// weights is the inner Newton-Cotes table, hoisted out of the
	// per-radius loop (quadrature.NewtonCotes rebuilds it on every call).
	weights []float64

	x, y float64
	lane *gpusim.Lane
	// bindGen counts Binds; a subregion whose stamp differs computes its
	// point-lifetime geometry on first use (bound).
	bindGen uint64

	// f is Eval bound once at construction; handing out a fresh method
	// value per point would allocate a closure per call.
	f quadrature.Func

	// fullCos/fullSin are the cos/sin tables of the full-circle window
	// [-π, π], which is the same for every point, subregion and step:
	// near the bunch every radius takes it, so the table is built once
	// per Reset instead of once per (point, subregion).
	fullCos, fullSin [maxInnerPoints]float64

	// prevSubW/prevWmode/prevNumSub are the radial-geometry stamp of the
	// problem the evaluator was last Reset to; while they are unchanged
	// the radial memo generation survives the Reset.
	prevSubW   float64
	prevWmode  weightMode
	prevNumSub int

	ws      quadrature.AdaptiveWorkspace
	part    []float64
	visible []bool
	arena   hostpar.Arena[float64]

	// rmemo is the radial memo: integrand factors that depend on the
	// radius alone — the subregion index, the singular weight w(r), and
	// the narrow-cone half-angle — keyed by the radius bits. Every grid
	// point integrates the same subregion intervals [j·cΔt, (j+1)·cΔt]
	// (R(p) is a multiple of cΔt), so adaptive refinement probes the same
	// dyadic radius ladder at every point and the memo hits across
	// points, tiles and (generation permitting) steps. rgen stamps the
	// radial geometry (subW, weight mode, subregion count): Reset keeps
	// it while the geometry is unchanged, so entries persist across
	// steps; a geometry change invalidates every entry lazily. The
	// half-angle additionally carries the per-subregion theta-window
	// generation from boxGen, bumped whenever that subregion's support
	// box moves (bend entry/exit), so window geometry changes can never
	// serve a stale cone angle.
	rmemo              []radialEntry
	rgen               uint64
	boxGen             []uint64
	prevBoxes          []bbox
	memoHits, memoMiss uint64
}

// radialMemoBits sizes the direct-mapped radial memo; 512 slots cover the
// dyadic radius ladder of a deeply refined step with few collisions.
const (
	radialMemoBits = 9
	radialMemoSize = 1 << radialMemoBits
)

// radialEntry is one memoized radius: the subregion containing it, the
// radial weight, and (boxGen-stamped) the narrow-cone half angle of that
// subregion's theta window.
type radialEntry struct {
	r       float64
	gen     uint64
	j       int32
	hasHalf bool
	boxGen  uint64
	weight  float64
	half    float64
}

// NewEvaluator returns an evaluator bound to p. The constructor allocates;
// everything after it (Bind, Eval, SolvePoint, Reset) reuses the
// evaluator's scratch.
func NewEvaluator(p *Problem) *Evaluator {
	e := &Evaluator{}
	e.f = e.Eval
	e.rmemo = make([]radialEntry, radialMemoSize)
	e.Reset(p)
	return e
}

// Func returns the outer radial integrand bound to the evaluator's current
// point, for callers that drive their own quadrature (the kernels' panel
// walks). The same func value is returned for every point — Bind moves it.
func (e *Evaluator) Func() quadrature.Func { return e.f }

// Reset rebinds the evaluator to a problem — typically the next step's —
// hoisting the history planes, support geometry and quadrature tables.
// Scratch is reused; steady-state Resets do not allocate.
func (e *Evaluator) Reset(p *Problem) {
	e.p = p
	e.weights = p.Inner.AppendWeights(e.weights[:0])
	n := p.NumSub()
	// Radial-memo generation: the memoized subregion index and weight
	// depend only on (subW, weight mode, subregion count), so while that
	// stamp is unchanged — the steady state of a stepping simulation —
	// the memo survives into the next step. Any change invalidates every
	// entry lazily through the generation check.
	if p.subW != e.prevSubW || p.wmode != e.prevWmode || n != e.prevNumSub || e.rgen == 0 {
		e.rgen++
		e.prevSubW, e.prevWmode, e.prevNumSub = p.subW, p.wmode, n
	}
	// Theta-window generations: the memoized narrow-cone half angle of
	// subregion j depends on its support box; bump boxGen[j] whenever the
	// box moved (a translating bunch, bend entry/exit) so stale cone
	// angles can never be served. Generations start at 1 — a zero-valued
	// memo entry never matches.
	oldN := len(e.boxGen)
	if cap(e.boxGen) < n {
		bg := make([]uint64, n)
		copy(bg, e.boxGen)
		pb := make([]bbox, n)
		copy(pb, e.prevBoxes)
		e.boxGen, e.prevBoxes = bg, pb
	}
	e.boxGen = e.boxGen[:n]
	e.prevBoxes = e.prevBoxes[:n]
	for j := 0; j < n; j++ {
		if j >= oldN || e.boxGen[j] == 0 || p.support[j] != e.prevBoxes[j] {
			e.boxGen[j]++
			if e.boxGen[j] == 0 {
				e.boxGen[j] = 1
			}
			e.prevBoxes[j] = p.support[j]
		}
	}
	// Full-circle trig tables, shared by every point: built with the
	// identical expressions inner() uses for an explicit [-π, π] window.
	if np := len(e.weights); np > 1 {
		h := (math.Pi - (-math.Pi)) / float64(np-1)
		for i := 0; i < np; i++ {
			theta := -math.Pi + float64(i)*h
			e.fullCos[i] = math.Cos(theta)
			e.fullSin[i] = math.Sin(theta)
		}
	}
	if cap(e.sub) < n {
		e.sub = make([]subEval, n)
	}
	e.sub = e.sub[:n]
	for j := 0; j < n; j++ {
		s := &e.sub[j]
		*s = subEval{}
		b := p.support[j]
		s.empty = b.empty
		if !b.empty {
			s.cx, s.cy = 0.5*(b.x0+b.x1), 0.5*(b.y0+b.y1)
			s.halfDiag = 0.5*math.Hypot(b.x1-b.x0, b.y1-b.y0) + 1e-300
		}
		i := p.Step - j - 1
		s.i = i
		gm, g0, gp := p.Hist.At(i-1), p.Hist.At(i), p.Hist.At(i+1)
		if g0 == nil {
			continue
		}
		s.ok = true
		if gm == nil {
			gm = g0
		}
		if gp == nil {
			gp = g0
		}
		s.pm = makePlane(p.Hist, gm, i-1, p.Component)
		s.p0 = makePlane(p.Hist, g0, i, p.Component)
		s.pp = makePlane(p.Hist, gp, i+1, p.Component)
		// Grids of consecutive steps normally share the x axis (the
		// bunch translates in y): the stencil's x-side index and
		// weights are then identical across the three planes and are
		// computed once per sample instead of three times.
		s.sharedX = s.pm.x0 == s.p0.x0 && s.pm.dx == s.p0.dx && s.pm.nx == s.p0.nx &&
			s.pp.x0 == s.p0.x0 && s.pp.dx == s.p0.dx && s.pp.nx == s.p0.nx
	}
}

// makePlane hoists one history grid's component plane. step is the history
// step the closure path would pass to History.Address — when a missing
// neighbour grid was substituted by the middle one the address lookup
// fails and the closure path records address 0 for every load of that
// grid; addrStride 0 reproduces exactly that. The y-row memo starts keyed
// on a NaN, with yIn false: a NaN sy rounds to an index outside every
// row range (TestRoundIntMatchesRound), which is what the empty memo says.
func makePlane(h *grid.History, g *grid.Grid, step, comp int) plane {
	n := g.NX * g.NY
	pl := plane{
		data: g.Data[comp*n : (comp+1)*n],
		nx:   g.NX, ny: g.NY,
		x0: g.X0, y0: g.Y0,
		dx: g.DX, dy: g.DY,
		yKey: math.Float64bits(math.NaN()),
	}
	if base, ok := h.Address(step, 0, 0, comp); ok {
		pl.base = base
		pl.addrStride = 8
	}
	return pl
}

// Bind points the evaluator at (x, y). Each subregion's theta-window
// geometry is computed once per point, on the subregion's first use
// (bound) — the closure path recomputes it on every radius the
// quadrature probes, and a refine lane that integrates one subregion
// pays for that one only. lane, when non-nil, receives the same
// load/flop trace the closure path records.
func (e *Evaluator) Bind(x, y float64, lane *gpusim.Lane) {
	e.x, e.y = x, y
	e.lane = lane
	e.bindGen++ // lazily invalidate every subregion's window geometry
}

// bound returns subregion j with its point-lifetime geometry computed
// for the bound point: the annulus range [dmin, dmax] and fullAlways,
// with the lazily built centre and the trig cache marked stale.
func (e *Evaluator) bound(j int) *subEval {
	s := &e.sub[j]
	if s.bindGen == e.bindGen {
		return s
	}
	s.bindGen = e.bindGen
	s.cacheValid = false
	// center is computed lazily on the first narrow-cone window —
	// subregions that always see the full circle skip the Atan2.
	s.centerValid = false
	if !s.empty {
		s.dmin, s.dmax = boxDistRange(e.x, e.y, e.p.support[j])
		s.fullAlways = math.Hypot(s.cx-e.x, s.cy-e.y) <= s.halfDiag
	}
	return s
}

// window is ThetaWindow for the bound point, served from the geometry
// bound caches; same branches, same arithmetic, same results.
func (e *Evaluator) window(j int, r float64) (t0, t1 float64, ok bool) {
	s := e.bound(j)
	if s.empty || r < s.dmin || r > s.dmax {
		return 0, 0, false
	}
	if s.fullAlways || r <= s.halfDiag {
		return -math.Pi, math.Pi, true
	}
	sv := s.halfDiag / r
	if sv > 1 {
		sv = 1
	}
	half := math.Asin(sv) * 1.5
	if half > math.Pi {
		half = math.Pi
	}
	if !s.centerValid {
		s.center = math.Atan2(s.cy-e.y, s.cx-e.x)
		s.centerValid = true
	}
	return s.center - half, s.center + half, true
}

// Eval is the outer radial integrand at radius r for the bound point: the
// closure path's arithmetic, flop accounting and load trace, without its
// per-point closures, per-call weight tables or History lookups. The
// radius-only factors (subregion index, radial weight, cone half-angle)
// are served from the cross-point radial memo. A bound lane is charged
// once per evaluation: 8 flops for the window test and, when the window
// is open, the stencil flops inner reports and 2 per angular weight —
// the closure path's total (the replay reads only a unit's flop sum).
func (e *Evaluator) Eval(r float64) float64 {
	ent := e.radial(r)
	j := int(ent.j)
	t0, t1, ok := e.windowMemo(j, r, ent)
	if !ok {
		if e.lane != nil {
			e.lane.Flops(8) // window test
		}
		return 0
	}
	inner, flops := e.inner(&e.sub[j], r, t0, t1)
	if e.lane != nil {
		e.lane.Flops(8 + flops + 2*len(e.weights))
	}
	return ent.weight * inner
}

// radial returns the memo entry for radius r, filling the subregion index
// and radial weight on a miss. The stored weight is the exact float
// Problem.Weight returns, so serving it from the memo cannot split the
// evaluator from the closure reference; the memo is consulted on the lane
// path too, because neither quantity carries simulated-lane accounting.
func (e *Evaluator) radial(r float64) *radialEntry {
	ent := &e.rmemo[(math.Float64bits(r)*0x9e3779b97f4a7c15)>>(64-radialMemoBits)]
	if ent.gen == e.rgen && ent.r == r {
		e.memoHits++
		return ent
	}
	e.memoMiss++
	*ent = radialEntry{r: r, gen: e.rgen, j: int32(e.p.subregionOf(r)), weight: e.p.Weight(r)}
	return ent
}

// MemoStats returns (and with reset=true clears) the radial-memo hit and
// miss counters — the instrumentation behind rp_memo_reuse_total.
func (e *Evaluator) MemoStats(reset bool) (hits, misses uint64) {
	hits, misses = e.memoHits, e.memoMiss
	if reset {
		e.memoHits, e.memoMiss = 0, 0
	}
	return hits, misses
}

// windowMemo is ThetaWindow for the bound point with the expensive
// point-independent piece — the narrow-cone half angle asin(halfDiag/r) —
// served from the radial memo while subregion j's support box generation
// is unchanged. Same branches, same arithmetic, same results as window.
func (e *Evaluator) windowMemo(j int, r float64, ent *radialEntry) (t0, t1 float64, ok bool) {
	s := e.bound(j)
	if s.empty || r < s.dmin || r > s.dmax {
		return 0, 0, false
	}
	if s.fullAlways || r <= s.halfDiag {
		return -math.Pi, math.Pi, true
	}
	if !ent.hasHalf || ent.boxGen != e.boxGen[j] {
		sv := s.halfDiag / r
		if sv > 1 {
			sv = 1
		}
		half := math.Asin(sv) * 1.5
		if half > math.Pi {
			half = math.Pi
		}
		ent.half, ent.boxGen, ent.hasHalf = half, e.boxGen[j], true
	}
	if !s.centerValid {
		s.center = math.Atan2(s.cy-e.y, s.cx-e.x)
		s.centerValid = true
	}
	return s.center - ent.half, s.center + ent.half, true
}

// inner is the Newton-Cotes angular integral with the 27-point stencil
// inlined: temporal interpolation weights hoisted per radius (the closure
// path rederives them per angular sample) and samples read straight from
// the hoisted planes. With a lane bound it also returns the flops the
// closure path charges for the samples: 14 per angular sample and 30 per
// plane stencil recorded.
func (e *Evaluator) inner(s *subEval, r, t0, t1 float64) (float64, int) {
	if !s.ok {
		// No resident middle grid: every sample is zero and the closure
		// path records no loads or sample flops, so the sum is exactly 0.
		return 0, 0
	}
	p := e.p
	// Retarded time fraction within [iΔt, (i+1)Δt]; quadratic Lagrange
	// weights at nodes -1, 0, +1.
	tp := float64(p.Step) - r/p.subW
	tau := tp - float64(s.i)
	wm := 0.5 * tau * (tau - 1)
	w0 := 1 - tau*tau
	wp := 0.5 * tau * (tau + 1)

	n := len(e.weights)
	h := (t1 - t0) / float64(n-1)
	// The full-circle window [-π, π] is point-independent: serve it from
	// the evaluator-wide table. Other windows use the subregion's cache,
	// rebuilt only when the exact bounds change.
	full := t0 == -math.Pi && t1 == math.Pi
	cosTab, sinTab := &s.cosTab, &s.sinTab
	if full {
		cosTab, sinTab = &e.fullCos, &e.fullSin
	} else if !s.cacheValid || s.cacheT0 != t0 || s.cacheT1 != t1 {
		for i := 0; i < n; i++ {
			theta := t0 + float64(i)*h
			s.cosTab[i] = math.Cos(theta)
			s.sinTab[i] = math.Sin(theta)
		}
		s.cacheT0, s.cacheT1, s.cacheValid = t0, t1, true
	}
	// The stencil loop is unrolled, and each plane's sample records
	// itself (rowFast): with a lane bound, an in-range sample is one
	// Load3x3 footprint, the same nine addresses in the same order that
	// the closure path loads one by one, and the planes record in the
	// order they are summed (pm, p0, pp). Each sample also returns the
	// flat index of its footprint (-1 out of range).
	//
	// On the full circle the first and last abscissae are θ = -π and
	// θ = π: cos is -1 at both, and r·sin(±π) = ±1.2e-16·r is below half
	// an ulp of y once the bunch has left y ≈ 0, so both sample the
	// bitwise-same point (x - r, y). The last abscissa then reuses the
	// first's value and records its footprints again; a pair whose
	// coordinates differ in any bit is computed like every other sample.
	var sum float64
	x, y := e.x, e.y
	weights := e.weights
	lane := e.lane
	flops := 0
	var firstX, firstY, firstV float64
	var firstM, first0, firstP int
	for i := 0; i < n; i++ {
		sx := x + r*cosTab[i]
		sy := y + r*sinTab[i]
		var v float64
		rm, r0, rp := -1, -1, -1
		switch {
		case full && i == n-1 && math.Float64bits(sx) == math.Float64bits(firstX) && math.Float64bits(sy) == math.Float64bits(firstY):
			v, rm, r0, rp = firstV, firstM, first0, firstP
			if lane != nil {
				s.pm.record(lane, rm)
				s.p0.record(lane, r0)
				s.pp.record(lane, rp)
			}
		case s.sharedX:
			// One x-side index/weight computation serves all three
			// planes; the values are bitwise what each plane would
			// compute itself. An x rejection zeroes all three samples
			// exactly as three early returns would.
			fx := (sx - s.p0.x0) / s.p0.dx
			ix := roundInt(fx)
			if ix >= 1 && ix <= s.p0.nx-2 {
				dx := fx - float64(ix)
				wx0, wx1, wx2 := 0.5*(0.5-dx)*(0.5-dx), 0.75-dx*dx, 0.5*(0.5+dx)*(0.5+dx)
				var vm, v0, vp float64
				vm, rm = rowFast(&s.pm, ix, wx0, wx1, wx2, sy, lane)
				v0, r0 = rowFast(&s.p0, ix, wx0, wx1, wx2, sy, lane)
				vp, rp = rowFast(&s.pp, ix, wx0, wx1, wx2, sy, lane)
				v = wm*vm + w0*v0 + wp*vp
			}
		default:
			var vm, v0, vp float64
			vm, rm = samplePlaneFast(&s.pm, sx, sy, lane)
			v0, r0 = samplePlaneFast(&s.p0, sx, sy, lane)
			vp, rp = samplePlaneFast(&s.pp, sx, sy, lane)
			v = wm*vm + w0*v0 + wp*vp
		}
		if lane != nil {
			flops += stencilFlops(rm) + stencilFlops(r0) + stencilFlops(rp)
		}
		if i == 0 {
			firstX, firstY, firstV, firstM, first0, firstP = sx, sy, v, rm, r0, rp
		}
		sum += weights[i] * v
	}
	if lane != nil {
		flops += 14 * n // trig, weights and temporal blend
	}
	return (t1 - t0) * sum, flops
}

// roundInt is int(math.Round(x)), rounding half away from zero, for
// |x| < 2^52: truncate toward zero, then step one away from zero when the
// remainder's magnitude is at least 0.5. The remainder x - trunc(x) is
// exact there (Sterbenz), so the comparison decides exactly what Round
// decides. Beyond that range, and for NaN and ±Inf, neither form yields
// an index inside any grid's range test.
func roundInt(x float64) int {
	i := int(x)
	if f := x - float64(i); f >= 0.5 {
		i++
	} else if f <= -0.5 {
		i--
	}
	return i
}

// setRow fills the plane's y-row memo for the sample row sy.
func (pl *plane) setRow(sy float64) {
	fy := (sy - pl.y0) / pl.dy
	iy := roundInt(fy)
	pl.yKey = math.Float64bits(sy)
	pl.yIn = iy >= 1 && iy <= pl.ny-2
	if !pl.yIn {
		return
	}
	dy := fy - float64(iy)
	pl.wy0 = 0.5 * (0.5 - dy) * (0.5 - dy)
	pl.wy1 = 0.75 - dy*dy
	pl.wy2 = 0.5 * (0.5 + dy) * (0.5 + dy)
	pl.yRow = (iy - 1) * pl.nx
}

// rowFast is one plane's 3x3 stencil sample at column ix, with the x-side
// weights precomputed by the caller and the y side served from the
// plane's row memo. It returns the sample and the flat index of the
// footprint's first element, or 0 and -1 when the row is out of range.
// With a lane bound, an in-range sample records its footprint.
func rowFast(pl *plane, ix int, wx0, wx1, wx2, sy float64, lane *gpusim.Lane) (float64, int) {
	if math.Float64bits(sy) != pl.yKey {
		pl.setRow(sy)
	}
	if !pl.yIn {
		return 0, -1
	}
	wy0, wy1, wy2 := pl.wy0, pl.wy1, pl.wy2
	row := pl.yRow + ix - 1
	d0 := pl.data[row : row+3 : row+3]
	d1 := pl.data[row+pl.nx : row+pl.nx+3 : row+pl.nx+3]
	d2 := pl.data[row+2*pl.nx : row+2*pl.nx+3 : row+2*pl.nx+3]
	var v float64
	v += wy0 * wx0 * d0[0]
	v += wy0 * wx1 * d0[1]
	v += wy0 * wx2 * d0[2]
	v += wy1 * wx0 * d1[0]
	v += wy1 * wx1 * d1[1]
	v += wy1 * wx2 * d1[2]
	v += wy2 * wx0 * d2[0]
	v += wy2 * wx1 * d2[1]
	v += wy2 * wx2 * d2[2]
	if lane != nil {
		pl.record(lane, row)
	}
	return v, row
}

// record charges the plane's footprint at flat index row to lane, when
// the sample was in range (row >= 0): one Load3x3, the nine loads the
// closure path's sampleGrid records one by one.
func (pl *plane) record(lane *gpusim.Lane, row int) {
	if row >= 0 {
		lane.Load3x3(pl.base+uintptr(row)*pl.addrStride, pl.addrStride, uintptr(pl.nx)*pl.addrStride)
	}
}

// stencilFlops is the closure path's flop charge for one plane sample
// with footprint index row: 30 for the stencil weights and accumulation
// when it was in range, none otherwise.
func stencilFlops(row int) int {
	if row < 0 {
		return 0
	}
	return 30
}

// samplePlaneFast is the closure path's sampleGrid on a hoisted plane:
// identical arithmetic with no Grid/History indirection per sample and the
// stencil unrolled the same way as rowFast, which records it on lane and
// whose footprint index it returns (-1 when x or y is out of range).
func samplePlaneFast(pl *plane, sx, sy float64, lane *gpusim.Lane) (float64, int) {
	fx := (sx - pl.x0) / pl.dx
	ix := roundInt(fx)
	if ix < 1 || ix > pl.nx-2 {
		return 0, -1
	}
	dx := fx - float64(ix)
	return rowFast(pl, ix, 0.5*(0.5-dx)*(0.5-dx), 0.75-dx*dx, 0.5*(0.5+dx)*(0.5+dx), sy, lane)
}

// boundR is Problem.R for the bound point, from the geometry bound
// computes (for every subregion).
func (e *Evaluator) boundR() float64 {
	p := e.p
	last := 0
	for j := range e.sub {
		s := e.bound(j)
		if s.empty {
			continue
		}
		lo, hi := float64(j)*p.subW, float64(j+1)*p.subW
		if s.dmax >= lo && s.dmin <= hi {
			last = j
		}
	}
	return float64(last+1) * p.subW
}

// ResetScratch rewinds the arena backing the Partition/Pattern slices of
// the evaluator's previous SolvePoint results. Batch drivers call it once
// per step, after the previous step's results have been consumed.
func (e *Evaluator) ResetScratch() { e.arena.Reset() }

// SolvePoint evaluates the rp-integral at (x, y) with the same
// per-subregion adaptive Simpson scheme — and bitwise the same results —
// as the closure-based reference path. The result's Partition and Pattern
// slices live in the evaluator's arena: they stay valid until ResetScratch
// rewinds it, so batch drivers must consume (or copy) them first.
func (e *Evaluator) SolvePoint(x, y float64) PointResult {
	e.Bind(x, y, nil)
	p := e.p
	r := e.boundR()
	n := p.NumSub()
	part := append(e.part[:0], 0)
	var res PointResult
	// The panel-value-reusing quadrature never probes a radius twice
	// within one subregion, and adjacent subregions share a boundary
	// radius (b_j == a_{j+1}): each integration hands f(b_j) on, and the
	// next takes it as f(a_{j+1}) when the two radii are bitwise equal.
	// Eval is deterministic for the bound point, which is all
	// IntegrateReuse requires for bitwise identity.
	var fb quadrature.Known
	for j := 0; j < n; j++ {
		a := float64(j) * p.subW
		if a >= r {
			break
		}
		b := math.Min(a+p.subW, r)
		var est quadrature.Estimate
		est, fb, part = e.ws.IntegrateReuse(e.f, a, b, p.Tol, p.MaxDepth, fb, part)
		res.I += est.I
		res.Err += est.Err
		res.Evals += est.Evals
	}
	e.part = part
	res.Partition = e.arena.Copy(part)
	res.Pattern = e.observedPattern(part)
	return res
}

// observedPattern is Problem.AppendObservedPattern for the bound point,
// with the pattern drawn from the arena and the window test served from
// the cached geometry.
func (e *Evaluator) observedPattern(partition []float64) access.Pattern {
	n := e.p.NumSub()
	pat := access.Pattern(e.arena.Take(n))
	for j := range pat {
		pat[j] = 0
	}
	e.visible = hostpar.Resize(e.visible, n)
	vis := e.visible
	for j := range vis {
		vis[j] = false
	}
	for i := 0; i+1 < len(partition); i++ {
		mid := 0.5 * (partition[i] + partition[i+1])
		j := e.p.subregionOf(mid)
		pat[j]++
		if !vis[j] {
			if _, _, ok := e.window(j, mid); ok {
				vis[j] = true
			}
		}
	}
	for j := range pat {
		if !vis[j] {
			pat[j] = 0
		}
	}
	return pat
}

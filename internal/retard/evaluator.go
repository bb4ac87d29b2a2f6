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
type plane struct {
	data       []float64
	nx, ny     int
	x0, y0     float64
	dx, dy     float64
	base       uintptr
	addrStride uintptr
}

// subEval is the per-subregion state of an Evaluator: problem-lifetime
// plane and support geometry (set by Reset), point-lifetime window
// geometry (set by Bind), and a window-lifetime cos/sin table keyed on the
// exact window bounds — full-circle windows are radius-independent, so
// near the bunch every radius of a subregion reuses one table.
type subEval struct {
	// Problem-lifetime (Reset).
	ok         bool // middle grid resident
	sharedX    bool // the three planes share x-axis geometry
	pm, p0, pp plane
	i          int // history step of the middle grid
	empty      bool
	cx, cy     float64 // support-box centre
	halfDiag   float64
	// Point-lifetime (Bind).
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
// rp-integral: the arithmetic and simulated-lane accounting of the
// closure-based Integrand/SolvePointClosure path, restructured so that
// everything a point or a subregion can share is computed once and cached
// — theta-window geometry per (point, subregion) instead of per radius,
// history planes and component offsets hoisted out of the stencil, the
// Newton-Cotes weight table built once, cos/sin tables reused while the
// angular window repeats. A bound evaluator produces bitwise-identical
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

	// cache memoizes Eval(r) for the bound point. Adaptive Simpson
	// re-probes three of every child panel's five abscissae at radii the
	// parent panel already evaluated (its endpoints and midpoint); the
	// closure path pays the full stencil again, the evaluator returns
	// the identical stored float, so results stay bitwise equal. The
	// cache is bypassed whenever a lane is attached: simulated kernels
	// must charge every load and flop, and reuse would change the
	// accounting.
	cache    [evalCacheSize]evalCacheEntry
	cacheGen uint64

	// fRaw is eval bound once at construction: the uncached integrand
	// SolvePoint hands to the panel-value-reusing quadrature, which never
	// probes the same radius twice within a point.
	fRaw quadrature.Func

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

// evalCacheBits sizes the direct-mapped radius cache; 256 slots cover the
// few hundred distinct abscissae of a deeply refined point with few
// collisions.
const (
	evalCacheBits = 8
	evalCacheSize = 1 << evalCacheBits
)

type evalCacheEntry struct {
	r, v float64
	gen  uint64
}

// NewEvaluator returns an evaluator bound to p. The constructor allocates;
// everything after it (Bind, Eval, SolvePoint, Reset) reuses the
// evaluator's scratch.
func NewEvaluator(p *Problem) *Evaluator {
	e := &Evaluator{}
	e.f = e.Eval
	e.fRaw = e.eval
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
	e.cacheGen++ // memoized radii belong to the old problem (and gen 0 marks the zero-value cache invalid)
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
// grid; addrStride 0 reproduces exactly that.
func makePlane(h *grid.History, g *grid.Grid, step, comp int) plane {
	n := g.NX * g.NY
	pl := plane{
		data: g.Data[comp*n : (comp+1)*n],
		nx:   g.NX, ny: g.NY,
		x0: g.X0, y0: g.Y0,
		dx: g.DX, dy: g.DY,
	}
	if base, ok := h.Address(step, 0, 0, comp); ok {
		pl.base = base
		pl.addrStride = 8
	}
	return pl
}

// Bind points the evaluator at (x, y), computing each subregion's
// theta-window geometry once — the closure path recomputes it on every
// radius the quadrature probes. lane, when non-nil, receives the same
// load/flop trace Problem.Integrand records.
func (e *Evaluator) Bind(x, y float64, lane *gpusim.Lane) {
	e.x, e.y = x, y
	e.lane = lane
	e.cacheGen++ // lazily invalidate the memoized radii of the old point
	for j := range e.sub {
		s := &e.sub[j]
		s.cacheValid = false
		if s.empty {
			continue
		}
		b := e.p.support[j]
		s.dmin, s.dmax = boxDistRange(x, y, b)
		d := math.Hypot(s.cx-x, s.cy-y)
		s.fullAlways = d <= s.halfDiag
		// center is computed lazily on the first narrow-cone window —
		// subregions the quadrature never probes (or that always see the
		// full circle) skip the Atan2 entirely.
		s.centerValid = false
	}
}

// window is ThetaWindow for the bound point, served from the geometry Bind
// cached; same branches, same arithmetic, same results.
func (e *Evaluator) window(j int, r float64) (t0, t1 float64, ok bool) {
	s := &e.sub[j]
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

// Eval is the outer radial integrand at radius r: Problem.Integrand's
// arithmetic, flop accounting and load trace, without its per-point
// closures, per-call weight tables or History lookups. Without a lane it
// memoizes per-radius results — the quadrature's evaluation count is
// unchanged (it still calls Eval), but repeated abscissae cost a table
// probe instead of a 27-point stencil walk.
func (e *Evaluator) Eval(r float64) float64 {
	if e.lane == nil {
		ent := &e.cache[(math.Float64bits(r)*0x9e3779b97f4a7c15)>>(64-evalCacheBits)]
		if ent.gen == e.cacheGen && ent.r == r {
			return ent.v
		}
		v := e.eval(r)
		*ent = evalCacheEntry{r: r, v: v, gen: e.cacheGen}
		return v
	}
	return e.eval(r)
}

// eval computes the integrand with no per-point memoization; the
// radius-only factors (subregion index, radial weight, cone half-angle)
// are served from the cross-point radial memo.
func (e *Evaluator) eval(r float64) float64 {
	ent := e.radial(r)
	j := int(ent.j)
	t0, t1, ok := e.windowMemo(j, r, ent)
	if e.lane != nil {
		e.lane.Flops(8) // window test
	}
	if !ok {
		return 0
	}
	inner := e.inner(&e.sub[j], r, t0, t1)
	if e.lane != nil {
		e.lane.Flops(2 * len(e.weights))
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
	s := &e.sub[j]
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
// the hoisted planes.
func (e *Evaluator) inner(s *subEval, r, t0, t1 float64) float64 {
	if !s.ok {
		// No resident middle grid: every sample is zero and the closure
		// path records no loads or sample flops, so the sum is exactly 0.
		return 0
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
	cosTab, sinTab := &s.cosTab, &s.sinTab
	if t0 == -math.Pi && t1 == math.Pi {
		cosTab, sinTab = &e.fullCos, &e.fullSin
	} else if !s.cacheValid || s.cacheT0 != t0 || s.cacheT1 != t1 {
		for i := 0; i < n; i++ {
			theta := t0 + float64(i)*h
			s.cosTab[i] = math.Cos(theta)
			s.sinTab[i] = math.Sin(theta)
		}
		s.cacheT0, s.cacheT1, s.cacheValid = t0, t1, true
	}
	// The stencil loop is unrolled and the three temporal planes are
	// gathered in one call so the x-side weights stay in registers
	// (sampleRow3Fast). A lane records each in-range plane sample as one
	// Load3x3 footprint after the arithmetic: the same nine addresses, in
	// the same order, that the closure path loads one by one.
	var sum float64
	x, y := e.x, e.y
	weights := e.weights
	lane := e.lane
	for i := 0; i < n; i++ {
		sx := x + r*cosTab[i]
		sy := y + r*sinTab[i]
		var v float64
		if s.sharedX {
			// One x-side index/weight computation serves all three
			// planes; the values are bitwise what each plane would
			// compute itself. An x rejection zeroes all three samples
			// exactly as three early returns would.
			fx := (sx - s.p0.x0) / s.p0.dx
			ix := int(math.Round(fx))
			if ix >= 1 && ix <= s.p0.nx-2 {
				dx := fx - float64(ix)
				v = sampleRow3Fast(s, ix,
					0.5*(0.5-dx)*(0.5-dx), 0.75-dx*dx, 0.5*(0.5+dx)*(0.5+dx),
					sy, wm, w0, wp)
				if lane != nil {
					rowFootprint(lane, &s.pm, ix, sy)
					rowFootprint(lane, &s.p0, ix, sy)
					rowFootprint(lane, &s.pp, ix, sy)
				}
			}
		} else {
			v = wm*samplePlaneFast(&s.pm, sx, sy) +
				w0*samplePlaneFast(&s.p0, sx, sy) +
				wp*samplePlaneFast(&s.pp, sx, sy)
			if lane != nil {
				planeFootprint(lane, &s.pm, sx, sy)
				planeFootprint(lane, &s.p0, sx, sy)
				planeFootprint(lane, &s.pp, sx, sy)
			}
		}
		if lane != nil {
			lane.Flops(14) // trig, weights and temporal blend
		}
		sum += weights[i] * v
	}
	return (t1 - t0) * sum
}

// rowFootprint records on lane what rowFast reads and computes when its
// sample row is in range: the 3x3 stencil as one Load3x3, and 30 stencil
// flops. The row arithmetic is rowFast's, so a plane records exactly when
// it contributes.
func rowFootprint(lane *gpusim.Lane, pl *plane, ix int, sy float64) {
	iy := int(math.Round((sy - pl.y0) / pl.dy))
	if iy < 1 || iy > pl.ny-2 {
		return
	}
	row := (iy-1)*pl.nx + ix - 1
	lane.Load3x3(pl.base+uintptr(row)*pl.addrStride, pl.addrStride, uintptr(pl.nx)*pl.addrStride)
	lane.Flops(30) // stencil weights and accumulation
}

// planeFootprint is rowFootprint behind samplePlaneFast's column test.
func planeFootprint(lane *gpusim.Lane, pl *plane, sx, sy float64) {
	if ix := int(math.Round((sx - pl.x0) / pl.dx)); ix >= 1 && ix <= pl.nx-2 {
		rowFootprint(lane, pl, ix, sy)
	}
}

// sampleRow3Fast blends the three temporal planes' row samples in one
// call: v = wm*rowFast(pm) + w0*rowFast(p0) + wp*rowFast(pp) with the
// identical association order the three-call form produces, the x-side
// weights handed over in registers instead of through a stack array.
func sampleRow3Fast(s *subEval, ix int, wx0, wx1, wx2, sy, wm, w0, wp float64) float64 {
	return wm*rowFast(&s.pm, ix, wx0, wx1, wx2, sy) +
		w0*rowFast(&s.p0, ix, wx0, wx1, wx2, sy) +
		wp*rowFast(&s.pp, ix, wx0, wx1, wx2, sy)
}

// rowFast is one plane's 3x3 stencil sample at column ix, with the x-side
// weights precomputed by the caller; rows out of range sample 0.
func rowFast(pl *plane, ix int, wx0, wx1, wx2, sy float64) float64 {
	fy := (sy - pl.y0) / pl.dy
	iy := int(math.Round(fy))
	if iy < 1 || iy > pl.ny-2 {
		return 0
	}
	dy := fy - float64(iy)
	wy0 := 0.5 * (0.5 - dy) * (0.5 - dy)
	wy1 := 0.75 - dy*dy
	wy2 := 0.5 * (0.5 + dy) * (0.5 + dy)
	row := (iy-1)*pl.nx + ix - 1
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
	return v
}

// samplePlaneFast is the closure path's sampleGrid on a hoisted plane:
// identical arithmetic with no Grid/History indirection per sample and the
// stencil unrolled the same way as rowFast.
func samplePlaneFast(pl *plane, sx, sy float64) float64 {
	fx := (sx - pl.x0) / pl.dx
	ix := int(math.Round(fx))
	if ix < 1 || ix > pl.nx-2 {
		return 0
	}
	dx := fx - float64(ix)
	return rowFast(pl, ix, 0.5*(0.5-dx)*(0.5-dx), 0.75-dx*dx, 0.5*(0.5+dx)*(0.5+dx), sy)
}

// boundR is Problem.R for the bound point, from the cached geometry.
func (e *Evaluator) boundR() float64 {
	p := e.p
	last := 0
	for j := range e.sub {
		s := &e.sub[j]
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
	for j := 0; j < n; j++ {
		a := float64(j) * p.subW
		if a >= r {
			break
		}
		b := math.Min(a+p.subW, r)
		var est quadrature.Estimate
		// The panel-value-reusing quadrature never probes a radius twice
		// within one subregion, but adjacent subregions share a boundary
		// radius (b_j == a_{j+1}): the memoizing Eval serves the second
		// probe from the per-point cache. Eval is deterministic for the
		// bound point, which is all IntegrateReuse requires for bitwise
		// identity.
		est, part = e.ws.IntegrateReuse(e.f, a, b, p.Tol, p.MaxDepth, part)
		res.I += est.I
		res.Err += est.Err
		res.Evals += est.Evals
	}
	e.part = part
	res.Partition = e.arena.Copy(part)
	res.Pattern = e.observedPattern(part)
	return res
}

// observedPattern is Problem.ObservedPattern for the bound point, with the
// pattern drawn from the arena and the window test served from the cached
// geometry.
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

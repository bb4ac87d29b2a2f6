// Package retard defines the retarded-potential integral (the rp-integral,
// Equation 1 of the paper) over the moment-grid history, together with a
// sequential reference solver.
//
// For a grid point p = (x, y) at time step k the potential is
//
//	I(p) = ∫₀^R(p) w(r′) ∫_{θmin}^{θmax} f^(p)(r′, θ′, t′) dθ′ dr′
//
// with retarded time t′ = kΔt − r′/c. The radial domain divides into
// subregions S_j = [j·cΔt, (j+1)·cΔt]; integrating along S_j reads the
// moment grids D_{k−j−1±1}, since f is approximated from 27 neighbouring
// points — a 3×3 spatial stencil on each of three temporally adjacent
// grids. The radial weight w carries the singular kernel of the collective
// effect being computed (r^{−1/3} for the longitudinal CSR interaction,
// r^{−2/3} for the transverse one); the inner angular integral uses a
// Newton–Cotes rule over the angular window where retarded charge exists,
// and the outer radial integral uses (adaptive) Simpson quadrature.
package retard

import (
	"fmt"
	"math"
	"slices"

	"beamdyn/internal/access"
	"beamdyn/internal/grid"
	"beamdyn/internal/phys"
	"beamdyn/internal/quadrature"
)

// Params are the numerical parameters of an rp-integral evaluation.
type Params struct {
	// Dt is the simulation step size in seconds; the subregion width along
	// the radial dimension is c·Dt.
	Dt float64
	// Kappa is the retardation depth: the number of radial subregions, and
	// hence the number of historical moment grids the integral can reach.
	Kappa int
	// Tol is the per-point absolute error tolerance tau.
	Tol float64
	// Inner is the Newton-Cotes rule of the inner angular integral.
	Inner quadrature.NewtonCotesOrder
	// MaxDepth bounds adaptive-Simpson recursion per subregion.
	MaxDepth int
	// WeightExp is the exponent of the radial kernel w(r) =
	// ((r+r0)/cΔt)^(−WeightExp); 1/3 computes the longitudinal potential,
	// 2/3 the transverse one.
	WeightExp float64
	// Component selects the moment component integrated (grid.CompCharge
	// for the charge potential).
	Component int
}

// Validate fills defaults and panics on unusable parameters.
func (p *Params) Validate() {
	if p.Dt <= 0 {
		panic("retard: Dt must be positive")
	}
	if p.Kappa < 1 {
		panic("retard: Kappa must be at least 1")
	}
	if p.Tol <= 0 {
		panic("retard: Tol must be positive")
	}
	if p.MaxDepth == 0 {
		p.MaxDepth = 12
	}
}

// Problem is the rp-integral evaluation problem at one time step: the grid
// history, the step index, and precomputed retarded-support geometry.
type Problem struct {
	Params
	Hist *grid.History
	// Step is the current time step k.
	Step int

	// support[j] is the bounding box of nonzero charge on grid D_{k-j-1},
	// the grid holding the sources seen through subregion S_j.
	support []bbox
	subW    float64
	r0      float64
	// wmode selects the exp/log-free Weight fast path for the fixed CSR
	// exponents (set once by NewProblem).
	wmode weightMode
}

// weightMode selects how Weight evaluates the fixed radial exponent.
type weightMode uint8

const (
	weightPow    weightMode = iota // math.Pow fallback, arbitrary exponent
	weightCbrt                     // exponent 1/3: 1/cbrt(x)
	weightCbrtSq                   // exponent 2/3: 1/cbrt(x)^2
)

type bbox struct {
	x0, y0, x1, y1 float64
	empty          bool
}

// StencilLoads is the number of grid values one integrand sample reads:
// a 3x3 spatial stencil on each of 3 temporally adjacent grids.
const StencilLoads = 27

// NewProblem prepares the rp-integral problem for the history's latest
// step. It panics when the history does not hold the current grid.
func NewProblem(hist *grid.History, params Params) *Problem {
	params.Validate()
	step := hist.Latest()
	if step < 0 {
		panic("retard: empty history")
	}
	p := &Problem{
		Params: params,
		Hist:   hist,
		Step:   step,
		subW:   phys.C * params.Dt,
	}
	p.r0 = 0.05 * p.subW // regularises the integrable kernel singularity at r=0
	p.support = make([]bbox, p.maxSub())
	for j := range p.support {
		s := hist.Support(step-j-1, params.Component)
		p.support[j] = bbox{x0: s.X0, y0: s.Y0, x1: s.X1, y1: s.Y1, empty: s.Empty}
	}
	switch params.WeightExp {
	case 1.0 / 3:
		p.wmode = weightCbrt
	case 2.0 / 3:
		p.wmode = weightCbrtSq
	default:
		p.wmode = weightPow
	}
	return p
}

// maxSub returns the number of subregions actually evaluable given the
// history depth: S_j needs grids at steps k-j-2 .. k-j, so j is bounded by
// both Kappa and the oldest resident grid.
func (p *Problem) maxSub() int {
	oldest := p.Hist.Oldest()
	n := p.Step - 2 - oldest + 1 // largest j with step k-j-2 >= oldest
	if n > p.Kappa {
		n = p.Kappa
	}
	if n < 0 {
		n = 0
	}
	return n
}

// NumSub returns the number of radial subregions of the problem.
func (p *Problem) NumSub() int { return len(p.support) }

// SubWidth returns the radial subregion width c*Dt.
func (p *Problem) SubWidth() float64 { return p.subW }

// R returns the irregular integration limit R(p) for the point (x, y): the
// end of the last subregion through which retarded charge is visible,
// clamped to the available retardation depth. Points that never see charge
// get the first subregion only, so every rp-integral has a non-empty
// domain (0 < R(p) <= kappa*c*dt, as in the paper).
func (p *Problem) R(x, y float64) float64 {
	last := 0
	for j := range p.support {
		if p.annulusSeesBox(x, y, j) {
			last = j
		}
	}
	return float64(last+1) * p.subW
}

// annulusSeesBox reports whether the radial annulus of subregion S_j around
// (x, y) intersects the charge support of the grid it reads.
func (p *Problem) annulusSeesBox(x, y float64, j int) bool {
	b := p.support[j]
	if b.empty {
		return false
	}
	lo, hi := float64(j)*p.subW, float64(j+1)*p.subW
	dmin, dmax := boxDistRange(x, y, b)
	return dmax >= lo && dmin <= hi
}

// boxDistRange returns the minimum and maximum distance from (x, y) to the
// box b.
func boxDistRange(x, y float64, b bbox) (dmin, dmax float64) {
	dx := math.Max(0, math.Max(b.x0-x, x-b.x1))
	dy := math.Max(0, math.Max(b.y0-y, y-b.y1))
	dmin = math.Hypot(dx, dy)
	fx := math.Max(math.Abs(x-b.x0), math.Abs(x-b.x1))
	fy := math.Max(math.Abs(y-b.y0), math.Abs(y-b.y1))
	dmax = math.Hypot(fx, fy)
	return dmin, dmax
}

// ThetaWindow returns the angular window [t0, t1] within which the circle
// of radius r around (x, y) can intersect retarded charge, and ok=false
// when there is none. The window is centred on the direction of the charge
// box and sized from the box diagonal, the same bounding construction used
// by the integration limits of [9].
func (p *Problem) ThetaWindow(x, y, r float64, j int) (t0, t1 float64, ok bool) {
	if j < 0 || j >= len(p.support) {
		return 0, 0, false
	}
	b := p.support[j]
	if b.empty {
		return 0, 0, false
	}
	dmin, dmax := boxDistRange(x, y, b)
	if r < dmin || r > dmax {
		return 0, 0, false
	}
	cx, cy := 0.5*(b.x0+b.x1), 0.5*(b.y0+b.y1)
	d := math.Hypot(cx-x, cy-y)
	halfDiag := 0.5*math.Hypot(b.x1-b.x0, b.y1-b.y0) + 1e-300
	if d <= halfDiag || r <= halfDiag {
		// Point inside (or circle smaller than) the box: full circle.
		return -math.Pi, math.Pi, true
	}
	center := math.Atan2(cy-y, cx-x)
	s := halfDiag / r
	if s > 1 {
		s = 1
	}
	half := math.Asin(s) * 1.5 // 1.5x safety margin on the cone
	if half > math.Pi {
		half = math.Pi
	}
	return center - half, center + half, true
}

// Weight returns the singular radial kernel w(r) =
// ((r+r0)/cΔt)^(−WeightExp). The CSR exponents 1/3 and 2/3 take an
// exp/log-free cube-root path; other exponents fall back to math.Pow.
// Every evaluation path (closure and panel evaluator) shares this
// function, so the fast path cannot split their results.
func (p *Problem) Weight(r float64) float64 {
	x := (r + p.r0) / p.subW
	switch p.wmode {
	case weightCbrt:
		return 1 / math.Cbrt(x)
	case weightCbrtSq:
		c := math.Cbrt(x)
		return 1 / (c * c)
	}
	return math.Pow(x, -p.WeightExp)
}

// subregionOf returns the subregion index containing radius r.
func (p *Problem) subregionOf(r float64) int {
	j := int(r / p.subW)
	if j < 0 {
		j = 0
	}
	if j >= len(p.support) {
		j = len(p.support) - 1
	}
	return j
}

// AppendObservedPattern appends to dst the access pattern a partition
// implies for the point (x, y) — NumSub panel counts — and returns the
// extended slice. Panels are attributed to the subregion containing their
// midpoint. Subregions where no panel's angular window is non-empty are
// zeroed, because their evaluation performs no grid references — and the
// access pattern exists precisely to model memory references (Section
// III.A). Zeroing whole-invisible subregions (but never discounting
// partially visible ones, whose full panel count is a real requirement)
// lets RP-CLUSTERING separate points that see charge in a subregion from
// points that do not. The kernels append each step's patterns into one
// step-sized slab.
func (p *Problem) AppendObservedPattern(dst access.Pattern, x, y float64, partition []float64) access.Pattern {
	start := len(dst)
	dst = slices.Grow(dst, p.NumSub())[:start+p.NumSub()]
	pat := dst[start:]
	clear(pat)
	// A subregion counts its panels negatively until one of them has a
	// non-empty angular window, then flips positive; counts are exact
	// small integers, so the flip is exact and no visibility scratch is
	// needed.
	for i := 0; i+1 < len(partition); i++ {
		mid := 0.5 * (partition[i] + partition[i+1])
		j := p.subregionOf(mid)
		if pat[j] > 0 {
			pat[j]++
			continue
		}
		pat[j]--
		// The angular window is non-empty exactly when mid lies in the
		// annulus of a non-empty support box (see ThetaWindow).
		if b := p.support[j]; !b.empty {
			if dmin, dmax := boxDistRange(x, y, b); !(mid < dmin || mid > dmax) {
				pat[j] = -pat[j]
			}
		}
	}
	for j, v := range pat {
		if v < 0 {
			pat[j] = 0
		}
	}
	return dst
}

// PointResult is the outcome of one rp-integral evaluation.
type PointResult struct {
	I, Err    float64
	Evals     int
	Partition []float64
	Pattern   access.Pattern
}

// SolvePoint evaluates the rp-integral at (x, y) with per-subregion
// adaptive Simpson quadrature — the accuracy reference the predictive
// kernels are validated against, and the source of observed access
// patterns on the first simulation step. It runs on the allocation-free
// panel evaluator; batch callers should hold an Evaluator (or GridSolver)
// themselves instead of paying its construction per point.
func (p *Problem) SolvePoint(x, y float64) PointResult {
	return NewEvaluator(p).SolvePoint(x, y)
}

// SolveGrid evaluates the rp-integral at every point of target in parallel
// on the host and stores the result in component comp. It returns the
// per-point results in row-major order. Callers that step repeatedly
// should hold a GridSolver instead, which keeps its per-worker evaluators
// and result storage across steps.
func (p *Problem) SolveGrid(target *grid.Grid, comp int) []PointResult {
	var s GridSolver
	return s.Solve(p, target, comp)
}

// String describes the problem briefly.
func (p *Problem) String() string {
	return fmt.Sprintf("rp-integral step=%d kappa=%d subW=%.3g tol=%.1g", p.Step, p.Kappa, p.subW, p.Tol)
}

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
	for _, s := range []Scheme{NGP, CIC} {
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
	for _, s := range []Scheme{NGP, CIC} {
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
	for _, s := range []Scheme{NGP, CIC} {
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

// TestGatherForcesMatchesInterp pins the range gather to Interp for every
// scheme: each particle's force is bitwise the pair Interp(c=0),
// Interp(c=1), also for particles outside the grid and at non-finite
// coordinates; outside the grid and at -Inf the force is zero.
func TestGatherForcesMatchesInterp(t *testing.T) {
	e := particles.NewGaussian(testBeam(2000), 3)
	e.P = append(e.P,
		particles.Particle{X: 1, Y: 0}, particles.Particle{X: 0, Y: -1},
		particles.Particle{X: math.NaN(), Y: 0}, particles.Particle{X: 0, Y: math.Inf(-1)})
	fg := New(32, 32, 2, -4e-4, -8e-4, 8e-4/31, 16e-4/31)
	for i := range fg.Data {
		fg.Data[i] = math.Sin(float64(i)) * 1e3
	}
	for _, s := range []Scheme{NGP, CIC} {
		out := make([]particles.Force, len(e.P))
		for i := range out {
			out[i] = particles.Force{AX: 1, AY: 1} // stale forces must be overwritten
		}
		GatherForces(fg, e.P, s, out)
		for i, p := range e.P {
			want := particles.Force{AX: Interp(fg, p.X, p.Y, 0, s), AY: Interp(fg, p.X, p.Y, 1, s)}
			if !sameForceBits(out[i], want) {
				t.Fatalf("%v particle %d at (%g, %g): GatherForces %v, Interp %v", s, i, p.X, p.Y, out[i], want)
			}
		}
		if n := len(e.P); out[n-4] != (particles.Force{}) || out[n-3] != (particles.Force{}) || out[n-1] != (particles.Force{}) {
			t.Errorf("%v: particles outside the grid got forces %v, %v, %v", s, out[n-4], out[n-3], out[n-1])
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
	if NGP.String() != "NGP" || CIC.String() != "CIC" || Scheme(2).String() != "Scheme(2)" {
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

// The reference below is the generic weighted loop that deposited and
// gathered every scheme, NGP included, before NGP got loops of its own:
// the parent's weights1D, Deposit, Interp and InterpVec, renamed. The NGP
// paths must reproduce it bit for bit.

func refSupport(s Scheme) int {
	switch s {
	case NGP:
		return 1
	case CIC:
		return 2
	}
	panic("grid: unknown scheme")
}

func refWeights1D(s Scheme, f float64, w []float64) int {
	switch s {
	case NGP:
		t := f + 0.5
		i := int(t)
		if t < 0 {
			i-- // floor, as CIC does: int truncates toward zero
		}
		w[0] = 1
		return i
	case CIC:
		i := int(f)
		if f < 0 {
			i-- // floor toward the lower cell for negative coordinates
		}
		d := f - float64(i)
		w[0] = 1 - d
		w[1] = d
		return i
	}
	panic("grid: unknown scheme")
}

func refDeposit(g *Grid, e *particles.Ensemble, s Scheme) (dropped int) {
	g.Zero()
	sup := refSupport(s)
	var wx, wy [2]float64
	cellArea := g.DX * g.DY
	for i := range e.P {
		p := &e.P[i]
		fx, fy := g.Cell(p.X, p.Y)
		ix0 := refWeights1D(s, fx, wx[:])
		iy0 := refWeights1D(s, fy, wy[:])
		if ix0 < 0 || iy0 < 0 || ix0+sup > g.NX || iy0+sup > g.NY {
			dropped++
			continue
		}
		q := p.Charge / cellArea
		plane := g.NX * g.NY
		for dy := 0; dy < sup; dy++ {
			row := (iy0+dy)*g.NX + ix0
			for dx := 0; dx < sup; dx++ {
				w := wx[dx] * wy[dy]
				idx := row + dx
				g.Data[CompCharge*plane+idx] += q * w
				g.Data[CompCurrentX*plane+idx] += q * w * p.VX
				g.Data[CompCurrentY*plane+idx] += q * w * p.VY
			}
		}
	}
	return dropped
}

func refInterp(g *Grid, x, y float64, c int, s Scheme) float64 {
	sup := refSupport(s)
	var wx, wy [2]float64
	fx, fy := g.Cell(x, y)
	ix0 := refWeights1D(s, fx, wx[:])
	iy0 := refWeights1D(s, fy, wy[:])
	if ix0 < 0 || iy0 < 0 || ix0+sup > g.NX || iy0+sup > g.NY {
		return 0
	}
	var v float64
	off := c * g.NX * g.NY
	for dy := 0; dy < sup; dy++ {
		row := off + (iy0+dy)*g.NX + ix0
		for dx := 0; dx < sup; dx++ {
			v += wx[dx] * wy[dy] * g.Data[row+dx]
		}
	}
	return v
}

func refInterpVec(g *Grid, x, y float64, s Scheme, out []float64) {
	for i := range out {
		out[i] = 0
	}
	sup := refSupport(s)
	var wx, wy [2]float64
	fx, fy := g.Cell(x, y)
	ix0 := refWeights1D(s, fx, wx[:])
	iy0 := refWeights1D(s, fy, wy[:])
	if ix0 < 0 || iy0 < 0 || ix0+sup > g.NX || iy0+sup > g.NY {
		return
	}
	plane := g.NX * g.NY
	for dy := 0; dy < sup; dy++ {
		row := (iy0+dy)*g.NX + ix0
		for dx := 0; dx < sup; dx++ {
			w := wx[dx] * wy[dy]
			idx := row + dx
			for c := 0; c < g.Comp; c++ {
				out[c] += w * g.Data[c*plane+idx]
			}
		}
	}
}

// overflows runs f and reports whether it panicked. The reference's
// ix0+sup > NX check overflows for a coordinate at -Inf (int conversion
// gives the end of the int range) and then indexes out of range; the
// production check drops such a particle instead.
func overflows(f func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	f()
	return false
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameForceBits(a, b particles.Force) bool {
	return math.Float64bits(a.AX) == math.Float64bits(b.AX) && math.Float64bits(a.AY) == math.Float64bits(b.AY)
}

// cellsByRanges runs NGPCells over three unequal ranges of ps, as the
// simulation's worker pool splits it, and returns the cells.
func cellsByRanges(g *Grid, ps []particles.Particle) []int32 {
	cells := make([]int32, len(ps))
	for i := range cells {
		cells[i] = 7 // stale cells must be overwritten
	}
	cuts := []int{0, len(ps) / 5, len(ps) / 2, len(ps)}
	for r := 0; r < 3; r++ {
		lo, hi := cuts[r], cuts[r+1]
		NGPCells(g, ps[lo:hi], cells[lo:hi])
	}
	return cells
}

// depositByCells is the simulation's NGP deposit: the cell pass over
// ranges, then the ordered accumulation.
func depositByCells(g *Grid, ps []particles.Particle) (dropped int) {
	return DepositCells(g, ps, cellsByRanges(g, ps))
}

// gatherByCells is the simulation's NGP force gather: the cell pass on
// fg's geometry, then the gather from cells.
func gatherByCells(fg *Grid, ps []particles.Particle) []particles.Force {
	out := make([]particles.Force, len(ps))
	for i := range out {
		out[i] = particles.Force{AX: 1, AY: 1} // stale forces must be overwritten
	}
	GatherCells(fg, cellsByRanges(fg, ps), out)
	return out
}

// ngpProbes are fractional grid coordinates along an axis of n points that
// exercise the NGP cell rule: the low-edge band (f+0.5 in (-1, 0), where
// truncation toward zero would give cell 0), f = k+0.5 exactly (ties round
// up), in-range points, points past either edge, and non-finite values.
func ngpProbes(n int) []float64 {
	hi := float64(n - 1)
	return []float64{
		-1.4999, -1, -0.9, -0.5000001,
		-0.5, 0.5, 2.5, hi - 0.5, hi + 0.5,
		-0.4999999, 0, 0.3, 3.7, hi, hi + 0.4999999,
		-1.5, -3, hi + 0.5000001, hi + 2,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
}

// TestNGPDepositMatchesReference deposits each probe particle alone and
// then all of them at once, on a unit-spaced grid (fractional coordinate =
// position) and on a Gaussian bunch's grid with inexact spacing: the NGP
// Deposit, and the cell pass followed by the ordered accumulation
// (NGPCells, DepositCells), must reproduce the reference's grid bits and
// dropped count.
func TestNGPDepositMatchesReference(t *testing.T) {
	const n = 8
	probes := ngpProbes(n)
	var all particles.Ensemble
	for i, x := range probes {
		for j, y := range probes {
			vx, vy := float64(i-j)*0.37, math.Copysign(0, float64(i-j))
			all.P = append(all.P, particles.Particle{X: x, Y: y, VX: vx, VY: vy, Charge: 0.1 + 0.01*float64(i)})
		}
	}
	g := New(n, n, MomentComponents, 0, 0, 1, 1)
	gc := New(n, n, MomentComponents, 0, 0, 1, 1)
	ref := New(n, n, MomentComponents, 0, 0, 1, 1)
	for _, p := range all.P {
		one := &particles.Ensemble{P: []particles.Particle{p}}
		got := Deposit(g, one, NGP)
		gotCells := depositByCells(gc, one.P)
		var want int
		if overflows(func() { want = refDeposit(ref, one, NGP) }) {
			if got != 1 || g.MaxAbs(CompCharge) != 0 || gotCells != 1 || gc.MaxAbs(CompCharge) != 0 {
				t.Errorf("particle at (%g, %g): reference overflows; dropped %d (by cells %d), want 1 and an empty grid", p.X, p.Y, got, gotCells)
			}
			continue
		}
		if got != want || !sameBits(g.Data, ref.Data) {
			t.Errorf("particle at (%g, %g): dropped %d, grid differs=%t; reference dropped %d", p.X, p.Y, got, !sameBits(g.Data, ref.Data), want)
		}
		if gotCells != want || !sameBits(gc.Data, ref.Data) {
			t.Errorf("particle at (%g, %g): by cells dropped %d, grid differs=%t; reference dropped %d", p.X, p.Y, gotCells, !sameBits(gc.Data, ref.Data), want)
		}
	}
	var finite particles.Ensemble
	for _, p := range all.P {
		if !math.IsInf(p.X, -1) && !math.IsInf(p.Y, -1) {
			finite.P = append(finite.P, p)
		}
	}
	if got, want := Deposit(g, &finite, NGP), refDeposit(ref, &finite, NGP); got != want || !sameBits(g.Data, ref.Data) {
		t.Errorf("all probes: dropped %d (reference %d), grids equal %t", got, want, sameBits(g.Data, ref.Data))
	}
	// All probes, -Inf included: the cell path drops those the reference
	// overflows on, so it matches the reference's finite deposit plus them.
	if got, want := depositByCells(gc, all.P), len(all.P)-len(finite.P)+refDeposit(ref, &finite, NGP); got != want || !sameBits(gc.Data, ref.Data) {
		t.Errorf("all probes by cells: dropped %d (want %d), grids equal %t", got, want, sameBits(gc.Data, ref.Data))
	}
	if g.Total(CompCharge) == 0 || g.Total(CompCurrentX) == 0 {
		t.Fatal("probe deposit left the grid empty")
	}

	e := particles.NewGaussian(testBeam(20000), 9)
	for i := range e.P {
		e.P[i].VX = float64(i%7-3) * 1e3
		e.P[i].VY = -e.P[i].VX
	}
	g = New(24, 40, MomentComponents, -3e-4, -6e-4, 6e-4/23, 12e-4/39)
	gc = New(24, 40, MomentComponents, -3e-4, -6e-4, 6e-4/23, 12e-4/39)
	ref = New(24, 40, MomentComponents, -3e-4, -6e-4, 6e-4/23, 12e-4/39)
	want := refDeposit(ref, e, NGP)
	if got := Deposit(g, e, NGP); got != want || want == 0 || !sameBits(g.Data, ref.Data) {
		t.Errorf("bunch: dropped %d (reference %d, want > 0), grids equal %t", got, want, sameBits(g.Data, ref.Data))
	}
	if got := depositByCells(gc, e.P); got != want || !sameBits(gc.Data, ref.Data) {
		t.Errorf("bunch by cells: dropped %d (reference %d), grids equal %t", got, want, sameBits(gc.Data, ref.Data))
	}
}

// TestNGPGatherMatchesReference gathers a field with -0, +0, negative and
// positive cells at every probe point: NGP Interp, GatherForces, the
// gather from cells (NGPCells, GatherCells) and the reference's Interp and
// InterpVec must agree bitwise (a -0 cell reads +0), and a point the
// reference overflows on gets zero.
func TestNGPGatherMatchesReference(t *testing.T) {
	const n = 8
	fg := New(n, n, 2, 0, 0, 1, 1)
	for i := range fg.Data {
		switch i % 4 {
		case 0:
			fg.Data[i] = math.Copysign(0, -1)
		case 1:
			fg.Data[i] = 0
		default:
			fg.Data[i] = math.Cos(float64(i)) * 7
		}
	}
	var ps []particles.Particle
	for _, x := range ngpProbes(n) {
		for _, y := range ngpProbes(n) {
			ps = append(ps, particles.Particle{X: x, Y: y})
		}
	}
	out := make([]particles.Force, len(ps))
	for i := range out {
		out[i] = particles.Force{AX: 1, AY: 1} // stale forces must be overwritten
	}
	GatherForces(fg, ps, NGP, out)
	byCells := gatherByCells(fg, ps)
	var negZero, plusZero int
	for i, p := range ps {
		var vec [2]float64
		var want particles.Force
		if overflows(func() {
			refInterpVec(fg, p.X, p.Y, NGP, vec[:])
			want = particles.Force{AX: refInterp(fg, p.X, p.Y, 0, NGP), AY: refInterp(fg, p.X, p.Y, 1, NGP)}
		}) {
			if out[i] != (particles.Force{}) || byCells[i] != (particles.Force{}) || Interp(fg, p.X, p.Y, 0, NGP) != 0 {
				t.Errorf("(%g, %g): reference overflows; GatherForces %v, by cells %v, want zero", p.X, p.Y, out[i], byCells[i])
			}
			continue
		}
		got := particles.Force{AX: Interp(fg, p.X, p.Y, 0, NGP), AY: Interp(fg, p.X, p.Y, 1, NGP)}
		if !sameForceBits(got, want) || !sameForceBits(out[i], want) || !sameForceBits(byCells[i], want) || !sameForceBits(want, particles.Force{AX: vec[0], AY: vec[1]}) {
			t.Errorf("(%g, %g): Interp %v, GatherForces %v, by cells %v, reference Interp %v, InterpVec %v", p.X, p.Y, got, out[i], byCells[i], want, vec)
		}
		ix, iy := nearest(p.X), nearest(p.Y)
		if !outside(ix, 1, n) && !outside(iy, 1, n) && math.Float64bits(fg.At(ix, iy, 0)) == math.Float64bits(math.Copysign(0, -1)) {
			negZero++
			if math.Float64bits(out[i].AX) == 0 && math.Float64bits(byCells[i].AX) == 0 {
				plusZero++
			}
		}
	}
	if negZero == 0 || plusZero != negZero {
		t.Errorf("%d probes over -0 cells, %d read +0 on both paths", negZero, plusZero)
	}
}

// TestNonFiniteCoordinatesDoNotPanic: every scheme, and NGP's cell pass
// with the accumulation and the gather from cells, drops a particle at
// ±Inf or beyond the int range in either coordinate and gathers zero
// there (a NaN coordinate's conversion is platform-defined, so only the
// absence of a panic is checked for it).
func TestNonFiniteCoordinatesDoNotPanic(t *testing.T) {
	g := New(8, 8, MomentComponents, 0, 0, 1, 1)
	ones := New(8, 8, 2, 0, 0, 1, 1)
	for i := range ones.Data {
		ones.Data[i] = 1
	}
	for _, s := range []Scheme{NGP, CIC} {
		for _, v := range []float64{math.Inf(1), math.Inf(-1), 1e300, -1e300, math.NaN()} {
			for _, p := range []particles.Particle{{X: v, Y: 3, Charge: 1}, {X: 3, Y: v, Charge: 1}} {
				one := []particles.Particle{p}
				dropped := Deposit(g, &particles.Ensemble{P: one}, s)
				f := make([]particles.Force, 1)
				GatherForces(ones, one, s, f)
				droppedCells, fCells := 1, particles.Force{}
				if s == NGP {
					droppedCells, fCells = depositByCells(g, one), gatherByCells(ones, one)[0]
				}
				if math.IsNaN(v) {
					continue
				}
				if dropped != 1 || f[0] != (particles.Force{}) || Interp(ones, p.X, p.Y, 0, s) != 0 {
					t.Errorf("%v at (%g, %g): dropped %d, force %v", s, p.X, p.Y, dropped, f[0])
				}
				if droppedCells != 1 || fCells != (particles.Force{}) {
					t.Errorf("%v at (%g, %g) by cells: dropped %d, force %v", s, p.X, p.Y, droppedCells, fCells)
				}
			}
		}
	}
}

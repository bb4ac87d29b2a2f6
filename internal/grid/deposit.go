package grid

import (
	"fmt"
	"math"

	"beamdyn/internal/particles"
)

// Scheme selects the particle-in-cell weighting function used for both
// deposition (scatter) and interpolation (gather). The paper cites the
// standard PIC references [11]-[13]; cloud-in-cell is the scheme used by
// the original code, and NGP is the library's default.
type Scheme int

const (
	// NGP is nearest-grid-point (zeroth order) weighting.
	NGP Scheme = iota
	// CIC is cloud-in-cell (linear) weighting, the paper's default.
	CIC
)

// String returns the scheme's conventional abbreviation.
func (s Scheme) String() string {
	switch s {
	case NGP:
		return "NGP"
	case CIC:
		return "CIC"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// support returns the number of grid points the kernel of a weighted
// scheme (CIC) touches along one axis.
func (s Scheme) support() int {
	if s == CIC {
		return 2
	}
	panic("grid: unknown scheme")
}

// nearest returns the NGP grid point of fractional grid coordinate f:
// floor(f + 0.5), stepping int's truncation toward zero down for negative
// arguments as CIC's floor does. NGP's weight is exactly 1, so the NGP
// loops below use the point alone and never form a weight.
func nearest(f float64) int {
	t := f + 0.5
	if t < 0 {
		return int(t) - 1
	}
	return int(t)
}

// weights1D fills w with the kernel weights along one axis for a particle
// at fractional grid coordinate f under a weighted scheme (CIC), and
// returns the index of the first grid point touched. w must have length >=
// the scheme's support.
func (s Scheme) weights1D(f float64, w []float64) int {
	if s != CIC {
		panic("grid: unknown scheme")
	}
	i := int(f)
	if f < 0 {
		i-- // floor toward the lower cell for negative coordinates
	}
	d := f - float64(i)
	w[0] = 1 - d
	w[1] = d
	return i
}

// Moments identifies the component layout produced by Deposit: charge
// density and the two current-density components, matching the "deposited
// charge, current densities, etc." moment set from the paper.
const (
	// CompCharge is the charge-density component index.
	CompCharge = 0
	// CompCurrentX is the x current-density component index.
	CompCurrentX = 1
	// CompCurrentY is the y current-density component index.
	CompCurrentY = 2
	// MomentComponents is the number of components Deposit writes.
	MomentComponents = 3
)

// outside reports whether a kernel of sup points starting at grid index i
// leaves [0, n). It is the check i < 0 || i+sup > n written so that it
// cannot overflow: a non-finite or huge coordinate can convert to an index
// at the top of the int range, which must be dropped too.
func outside(i, sup, n int) bool {
	return i < 0 || i > n-sup
}

// Deposit scatters the ensemble onto g using the given weighting scheme:
// component 0 receives charge density, components 1 and 2 the current
// densities (charge density times velocity). g must have at least
// MomentComponents components. Particles outside the grid are dropped,
// matching the behaviour of the reference implementation, and the number
// dropped is returned so callers can assert the grid covers the bunch.
// Particles are added in ensemble order, so the sums are reproducible.
func Deposit(g *Grid, e *particles.Ensemble, s Scheme) (dropped int) {
	if g.Comp < MomentComponents {
		panic(fmt.Sprintf("grid: Deposit needs %d components, grid has %d", MomentComponents, g.Comp))
	}
	g.Zero()
	if s == NGP {
		return depositNGP(g, e.P)
	}
	sup := s.support()
	var wx, wy [2]float64
	cellArea := g.DX * g.DY
	for i := range e.P {
		p := &e.P[i]
		fx, fy := g.Cell(p.X, p.Y)
		ix0 := s.weights1D(fx, wx[:])
		iy0 := s.weights1D(fy, wy[:])
		if outside(ix0, sup, g.NX) || outside(iy0, sup, g.NY) {
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

// ngpCell returns the flat index iy*nx+ix, within one plane, of the NGP
// cell of the physical point (x, y) on a grid with origin (x0, y0) and
// spacing (dx, dy), or -1 when that cell lies outside the nx x ny grid.
// Every NGP path finds its cells here, so they all find the same ones.
// uint(i) >= uint(n) is outside(i, 1, n) for n >= 1 in fewer operations,
// which keeps this helper within the compiler's inlining budget.
func ngpCell(x, y, x0, y0, dx, dy float64, nx, ny int) int {
	ix, iy := nearest((x-x0)/dx), nearest((y-y0)/dy)
	if uint(ix) >= uint(nx) || uint(iy) >= uint(ny) {
		return -1
	}
	return iy*nx + ix
}

// addNGP adds particle p's NGP moments q, q*VX and q*VY to cell idx of the
// three planes: the generic loop's q*w terms at w = 1.
func addNGP(rho, jx, jy []float64, idx int, p *particles.Particle, cellArea float64) {
	q := p.Charge / cellArea
	rho[idx] += q
	jx[idx] += q * p.VX
	jy[idx] += q * p.VY
}

// momentPlanes returns g's charge and current-density planes.
func momentPlanes(g *Grid) (rho, jx, jy []float64) {
	plane := g.NX * g.NY
	return g.Data[CompCharge*plane : (CompCharge+1)*plane],
		g.Data[CompCurrentX*plane : (CompCurrentX+1)*plane],
		g.Data[CompCurrentY*plane : (CompCurrentY+1)*plane]
}

// depositNGP is Deposit's nearest-grid-point loop: each in-bounds particle
// adds its moments to one cell of the three planes.
func depositNGP(g *Grid, ps []particles.Particle) (dropped int) {
	rho, jx, jy := momentPlanes(g)
	x0, y0, dx, dy, nx, ny := g.X0, g.Y0, g.DX, g.DY, g.NX, g.NY
	cellArea := dx * dy
	for i := range ps {
		p := &ps[i]
		idx := ngpCell(p.X, p.Y, x0, y0, dx, dy, nx, ny)
		if idx < 0 {
			dropped++
			continue
		}
		addNGP(rho, jx, jy, idx, p, cellArea)
	}
	return dropped
}

// NGPCells writes into cells the NGP cell of every particle of ps on g's
// geometry: its flat index iy*NX+ix within one plane, or -1 when the
// particle lies outside the grid. It writes only cells, so disjoint
// ranges can be found concurrently; cells must have one entry per
// particle, and the grid at most math.MaxInt32 cells per plane.
// DepositCells and GatherCells take the result, and give the bits Deposit
// and GatherForces give under NGP, on any grid of the same geometry for
// as long as the particles stay where they were.
func NGPCells(g *Grid, ps []particles.Particle, cells []int32) {
	if len(cells) != len(ps) || g.NX > math.MaxInt32/g.NY {
		panic(fmt.Sprintf("grid: NGPCells needs one cell per particle and at most %d cells, have %d cells for %d particles on %dx%d",
			math.MaxInt32, len(cells), len(ps), g.NX, g.NY))
	}
	x0, y0, dx, dy, nx, ny := g.X0, g.Y0, g.DX, g.DY, g.NX, g.NY
	for i := range ps {
		cells[i] = int32(ngpCell(ps[i].X, ps[i].Y, x0, y0, dx, dy, nx, ny))
	}
}

// DepositCells is Deposit(g, e, NGP) for the particles ps whose cells
// NGPCells found on g's geometry: it zeroes g, adds the particles in
// order, and returns the number dropped, all bitwise as Deposit does.
// Only this accumulation keeps particle order; the cell search before it
// is independent per particle.
func DepositCells(g *Grid, ps []particles.Particle, cells []int32) (dropped int) {
	if g.Comp < MomentComponents || len(cells) != len(ps) {
		panic(fmt.Sprintf("grid: DepositCells needs %d components and one cell per particle, have %d components, %d cells for %d particles",
			MomentComponents, g.Comp, len(cells), len(ps)))
	}
	g.Zero()
	rho, jx, jy := momentPlanes(g)
	cellArea := g.DX * g.DY
	for i, c := range cells {
		if c < 0 {
			dropped++
			continue
		}
		addNGP(rho, jx, jy, int(c), &ps[i], cellArea)
	}
	return dropped
}

// Interp gathers component c of g at the physical point (x, y) using the
// same weighting scheme as deposition (the standard PIC requirement for
// momentum conservation). Points outside the grid return 0.
func Interp(g *Grid, x, y float64, c int, s Scheme) float64 {
	if s == NGP {
		idx := ngpCell(x, y, g.X0, g.Y0, g.DX, g.DY, g.NX, g.NY)
		if idx < 0 {
			return 0
		}
		// 0 + v is the weighted sum from 0 at w = 1: a -0 cell reads +0.
		return 0 + g.Data[c*g.NX*g.NY+idx]
	}
	fx, fy := g.Cell(x, y)
	sup := s.support()
	var wx, wy [2]float64
	ix0 := s.weights1D(fx, wx[:])
	iy0 := s.weights1D(fy, wy[:])
	if outside(ix0, sup, g.NX) || outside(iy0, sup, g.NY) {
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

// GatherForces gathers the force field fg (components 0: AX, 1: AY) at
// every particle of ps into out, which must have the same length; a
// particle outside the grid gets a zero force. Each force is bitwise the
// pair Interp(fg, x, y, 0, s), Interp(fg, x, y, 1, s): the weighted
// schemes form each weight once and accumulate both components in
// Interp's order. It writes only out, so disjoint ranges can be gathered
// concurrently.
func GatherForces(fg *Grid, ps []particles.Particle, s Scheme, out []particles.Force) {
	if fg.Comp < 2 || len(out) != len(ps) {
		panic(fmt.Sprintf("grid: GatherForces needs 2 components and one force per particle, have %d components, %d forces for %d particles",
			fg.Comp, len(out), len(ps)))
	}
	nx, ny := fg.NX, fg.NY
	plane := nx * ny
	ax, ay := fg.Data[:plane], fg.Data[plane:2*plane]
	if s == NGP {
		x0, y0, dx, dy := fg.X0, fg.Y0, fg.DX, fg.DY
		for i := range ps {
			out[i] = forceAt(ax, ay, ngpCell(ps[i].X, ps[i].Y, x0, y0, dx, dy, nx, ny))
		}
		return
	}
	sup := s.support()
	var wx, wy [2]float64
	for i := range ps {
		fx, fy := fg.Cell(ps[i].X, ps[i].Y)
		ix0 := s.weights1D(fx, wx[:])
		iy0 := s.weights1D(fy, wy[:])
		var f particles.Force
		if !outside(ix0, sup, nx) && !outside(iy0, sup, ny) {
			for dy := 0; dy < sup; dy++ {
				row := (iy0+dy)*nx + ix0
				for dx := 0; dx < sup; dx++ {
					w := wx[dx] * wy[dy]
					f.AX += w * ax[row+dx]
					f.AY += w * ay[row+dx]
				}
			}
		}
		out[i] = f
	}
}

// GatherCells is GatherForces(fg, ps, NGP, out) for the particles ps
// whose cells NGPCells found on a grid of fg's geometry, without reading
// ps: each force is bitwise Interp's pair at the particle, and a particle
// outside the grid gets zero. It writes only out, so disjoint ranges can
// be gathered concurrently.
func GatherCells(fg *Grid, cells []int32, out []particles.Force) {
	if fg.Comp < 2 || len(out) != len(cells) {
		panic(fmt.Sprintf("grid: GatherCells needs 2 components and one force per cell, have %d components, %d forces for %d cells",
			fg.Comp, len(out), len(cells)))
	}
	plane := fg.NX * fg.NY
	ax, ay := fg.Data[:plane], fg.Data[plane:2*plane]
	for i, c := range cells {
		out[i] = forceAt(ax, ay, int(c))
	}
}

// forceAt is the NGP force at cell idx of the planes ax, ay, zero for
// idx < 0. 0 + v is the weighted sum from 0 at w = 1: a -0 cell reads +0.
func forceAt(ax, ay []float64, idx int) particles.Force {
	if idx < 0 {
		return particles.Force{}
	}
	return particles.Force{AX: 0 + ax[idx], AY: 0 + ay[idx]}
}

// Gradient estimates the spatial gradient of component c at grid point
// (ix, iy) with central differences (one-sided at the boundary). It is used
// by the self-force interpolation, where forces derive from potentials.
func Gradient(g *Grid, ix, iy, c int) (gx, gy float64) {
	xm, xp := ix-1, ix+1
	dx := 2 * g.DX
	if xm < 0 {
		xm, dx = ix, g.DX
	}
	if xp >= g.NX {
		xp = ix
		if xm == ix {
			return 0, 0
		}
		dx = g.DX
	}
	gx = (g.At(xp, iy, c) - g.At(xm, iy, c)) / dx
	ym, yp := iy-1, iy+1
	dy := 2 * g.DY
	if ym < 0 {
		ym, dy = iy, g.DY
	}
	if yp >= g.NY {
		yp = iy
		if ym == iy {
			return gx, 0
		}
		dy = g.DY
	}
	gy = (g.At(ix, yp, c) - g.At(ix, ym, c)) / dy
	return gx, gy
}

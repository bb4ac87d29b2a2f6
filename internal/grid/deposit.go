package grid

import (
	"fmt"

	"beamdyn/internal/particles"
)

// Scheme selects the particle-in-cell weighting function used for both
// deposition (scatter) and interpolation (gather). The paper cites the
// standard PIC references [11]-[13]; cloud-in-cell is the scheme used by
// the original code, with NGP and TSC provided for convergence studies.
type Scheme int

const (
	// NGP is nearest-grid-point (zeroth order) weighting.
	NGP Scheme = iota
	// CIC is cloud-in-cell (linear) weighting, the paper's default.
	CIC
	// TSC is triangular-shaped-cloud (quadratic) weighting.
	TSC
)

// String returns the scheme's conventional abbreviation.
func (s Scheme) String() string {
	switch s {
	case NGP:
		return "NGP"
	case CIC:
		return "CIC"
	case TSC:
		return "TSC"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// support returns the number of grid points the kernel touches along one
// axis.
func (s Scheme) support() int {
	switch s {
	case NGP:
		return 1
	case CIC:
		return 2
	case TSC:
		return 3
	}
	panic("grid: unknown scheme")
}

// weights1D fills w with the kernel weights along one axis for a particle
// at fractional grid coordinate f, and returns the index of the first grid
// point touched. w must have length >= the scheme's support.
func (s Scheme) weights1D(f float64, w []float64) int {
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
	case TSC:
		t := f + 0.5
		i := int(t)
		if t < 0 {
			i--
		}
		d := f - float64(i)
		w[0] = 0.5 * (0.5 - d) * (0.5 - d)
		w[1] = 0.75 - d*d
		w[2] = 0.5 * (0.5 + d) * (0.5 + d)
		return i - 1
	}
	panic("grid: unknown scheme")
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

// Deposit scatters the ensemble onto g using the given weighting scheme:
// component 0 receives charge density, components 1 and 2 the current
// densities (charge density times velocity). g must have at least
// MomentComponents components. Particles outside the grid are dropped,
// matching the behaviour of the reference implementation, and the number
// dropped is returned so callers can assert the grid covers the bunch.
func Deposit(g *Grid, e *particles.Ensemble, s Scheme) (dropped int) {
	if g.Comp < MomentComponents {
		panic(fmt.Sprintf("grid: Deposit needs %d components, grid has %d", MomentComponents, g.Comp))
	}
	g.Zero()
	sup := s.support()
	var wx, wy [3]float64
	cellArea := g.DX * g.DY
	for i := range e.P {
		p := &e.P[i]
		fx, fy := g.Cell(p.X, p.Y)
		ix0 := s.weights1D(fx, wx[:])
		iy0 := s.weights1D(fy, wy[:])
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

// Interp gathers component c of g at the physical point (x, y) using the
// same weighting scheme as deposition (the standard PIC requirement for
// momentum conservation). Points outside the grid return 0.
func Interp(g *Grid, x, y float64, c int, s Scheme) float64 {
	sup := s.support()
	var wx, wy [3]float64
	fx, fy := g.Cell(x, y)
	ix0 := s.weights1D(fx, wx[:])
	iy0 := s.weights1D(fy, wy[:])
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

// InterpVec gathers all components of g at (x, y) into out, which must have
// length g.Comp. It is the vector form of Interp used by the rp-integrand,
// which needs every moment component at once.
func InterpVec(g *Grid, x, y float64, s Scheme, out []float64) {
	if len(out) != g.Comp {
		panic(fmt.Sprintf("grid: InterpVec out length %d != %d components", len(out), g.Comp))
	}
	for i := range out {
		out[i] = 0
	}
	sup := s.support()
	var wx, wy [3]float64
	fx, fy := g.Cell(x, y)
	ix0 := s.weights1D(fx, wx[:])
	iy0 := s.weights1D(fy, wy[:])
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

// Package grid implements the 2-D data grids of moments used by the
// particle-in-cell machinery: deposition of the sampled distribution onto a
// grid (step 1 of the simulation loop), interpolation of gridded quantities
// back to arbitrary points and particles (step 3), and the history
// ring buffer holding the grids D_{k-kappa}..D_k that the retarded-potential
// integrals read (Section II.A of the paper).
package grid

import (
	"fmt"
	"math"
)

// Grid is a rectangular 2-D grid of multi-component moments. The moments
// are a "multidimensional quantity representing the distribution's deposited
// charge, current densities, etc." (paper, Section II.A); Comp selects how
// many scalar components each grid point stores.
//
// Data is stored planar (structure-of-arrays): component c occupies the
// contiguous block [c*NX*NY, (c+1)*NX*NY), row-major within it. The planar
// layout keeps a warp's same-component stencil reads unit-strided, which is
// what lets them coalesce on the simulated GPU — the layout choice every
// performant CUDA PIC code makes.
type Grid struct {
	NX, NY int
	Comp   int
	// X0, Y0 is the physical coordinate of grid point (0, 0); DX, DY the
	// physical spacing between adjacent grid points.
	X0, Y0 float64
	DX, DY float64
	// Step is the simulation time step at which this grid was deposited.
	Step int
	Data []float64
}

// New allocates a zeroed grid with the given resolution and component
// count covering the physical rectangle [x0, x0+(nx-1)*dx] x
// [y0, y0+(ny-1)*dy].
func New(nx, ny, comp int, x0, y0, dx, dy float64) *Grid {
	if nx < 2 || ny < 2 || comp < 1 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%dx%d", nx, ny, comp))
	}
	if dx <= 0 || dy <= 0 {
		panic("grid: non-positive spacing")
	}
	return &Grid{
		NX: nx, NY: ny, Comp: comp,
		X0: x0, Y0: y0, DX: dx, DY: dy,
		Data: make([]float64, nx*ny*comp),
	}
}

// Bounds returns the physical rectangle covered by the grid points.
func (g *Grid) Bounds() (x0, y0, x1, y1 float64) {
	return g.X0, g.Y0, g.X0 + float64(g.NX-1)*g.DX, g.Y0 + float64(g.NY-1)*g.DY
}

// Index returns the flat index of component c at (ix, iy).
func (g *Grid) Index(ix, iy, c int) int {
	return c*g.NX*g.NY + iy*g.NX + ix
}

// At returns component c of the grid point (ix, iy).
func (g *Grid) At(ix, iy, c int) float64 {
	return g.Data[g.Index(ix, iy, c)]
}

// Set stores v as component c of grid point (ix, iy).
func (g *Grid) Set(ix, iy, c int, v float64) {
	g.Data[g.Index(ix, iy, c)] = v
}

// Add accumulates v into component c of grid point (ix, iy).
func (g *Grid) Add(ix, iy, c int, v float64) {
	g.Data[g.Index(ix, iy, c)] += v
}

// Point returns the physical coordinate of grid point (ix, iy).
func (g *Grid) Point(ix, iy int) (x, y float64) {
	return g.X0 + float64(ix)*g.DX, g.Y0 + float64(iy)*g.DY
}

// Cell returns the fractional grid coordinate of the physical point (x, y):
// the pair (fx, fy) such that the point lies at column fx, row fy in grid
// units. Points outside the grid produce coordinates outside [0, NX-1] and
// the caller decides how to clamp.
func (g *Grid) Cell(x, y float64) (fx, fy float64) {
	return (x - g.X0) / g.DX, (y - g.Y0) / g.DY
}

// Zero clears all moment data in place, retaining the geometry, so a grid
// can be reused across deposition steps without reallocating.
func (g *Grid) Zero() {
	for i := range g.Data {
		g.Data[i] = 0
	}
}

// Clone returns a deep copy of the grid.
func (g *Grid) Clone() *Grid {
	out := *g
	out.Data = make([]float64, len(g.Data))
	copy(out.Data, g.Data)
	return &out
}

// Total returns the sum of component c over all grid points. For a charge
// deposition it is the total deposited charge, which charge-conserving
// schemes keep equal to the ensemble charge for in-bounds particles.
func (g *Grid) Total(c int) float64 {
	var s float64
	n := g.NX * g.NY
	for _, v := range g.Data[c*n : (c+1)*n] {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute value of component c.
func (g *Grid) MaxAbs(c int) float64 {
	var m float64
	n := g.NX * g.NY
	for _, v := range g.Data[c*n : (c+1)*n] {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Package analytic provides the reference solutions used by the paper's
// validation experiments (Section V.A, Figures 2 and 3).
//
// Two levels of reference are provided:
//
//   - ContinuumDeposit fills moment grids with the exact (noiseless)
//     Gaussian bunch density. Feeding these grids through the identical
//     retarded-potential pipeline yields the continuum solution of the
//     simulation's model — the role played by the exact 1-D rigid-bunch
//     solution of [24], [25] in the paper. The particle-sampled run then
//     differs from it only by Monte-Carlo noise, whose mean-square error
//     scales as 1/N (Figure 3).
//
//   - SteadyStateWakeTruncated evaluates the classical 1-D steady-state
//     CSR wake integral for a Gaussian line density (the (s-s')^(-1/3)
//     kernel acting on the density slope), cut off at the simulation's
//     retardation horizon, which grounds the shape of the model's
//     longitudinal force in accelerator physics.
package analytic

import (
	"math"

	"beamdyn/internal/grid"
	"beamdyn/internal/phys"
	"beamdyn/internal/quadrature"
)

// ContinuumDeposit fills g's moment components with the exact bivariate
// Gaussian bunch of the given beam centred at (cx, cy), moving at the
// design velocity: the noiseless limit of grid.Deposit over infinitely
// many particles.
func ContinuumDeposit(g *grid.Grid, beam phys.Beam, cx, cy float64) {
	v := beam.Beta() * phys.C
	norm := beam.TotalCharge / (2 * math.Pi * beam.SigmaX * beam.SigmaY)
	for iy := 0; iy < g.NY; iy++ {
		for ix := 0; ix < g.NX; ix++ {
			x, y := g.Point(ix, iy)
			ux := (x - cx) / beam.SigmaX
			uy := (y - cy) / beam.SigmaY
			rho := norm * math.Exp(-0.5*(ux*ux+uy*uy))
			g.Set(ix, iy, grid.CompCharge, rho)
			g.Set(ix, iy, grid.CompCurrentX, 0)
			g.Set(ix, iy, grid.CompCurrentY, rho*v)
		}
	}
}

// GaussianLineDensity returns the normalised line density lambda(s) of a
// Gaussian bunch with RMS length sigma (integral 1).
func GaussianLineDensity(s, sigma float64) float64 {
	u := s / sigma
	return math.Exp(-0.5*u*u) / (sigma * math.Sqrt(2*math.Pi))
}

// GaussianLineDensitySlope returns d(lambda)/ds.
func GaussianLineDensitySlope(s, sigma float64) float64 {
	return -s / (sigma * sigma) * GaussianLineDensity(s, sigma)
}

// SteadyStateWakeTruncated evaluates the classical steady-state CSR
// longitudinal wake shape for a Gaussian bunch,
//
//	W(s) = ∫₀^horizon u^(−1/3) · λ′(s − u) du,
//
// the convolution that appears (up to the physical prefactor
// −2/(3^{1/3} R^{2/3} 4πε₀) N e²) in the 1-D rigid-bunch solution the
// paper validates against, with the retarded interaction cut off at the
// finite horizon: the shape a simulation with retardation depth kappa
// (horizon = kappa·c·dt) actually computes; an infinite horizon gives the
// steady-state wake itself. s is the position within the bunch (head at
// positive s) and sigma the RMS bunch length. The integrable u^(−1/3)
// singularity is removed by the substitution u = t^(3/2), which makes the
// integrand smooth for adaptive Simpson quadrature.
func SteadyStateWakeTruncated(s, sigma, horizon float64) float64 {
	// The retarded support needs s-u within ~8 sigma of the bunch, i.e.
	// u <= s + 8*sigma; behind the bunch (s <= -8 sigma) the wake is zero.
	upperU := s + 8*sigma
	if upperU > horizon {
		upperU = horizon
	}
	if upperU <= 0 {
		return 0
	}
	upper := math.Pow(upperU, 2.0/3)
	res := quadrature.AdaptiveSimpson(func(t float64) float64 {
		u := math.Pow(t, 1.5)
		return 1.5 * GaussianLineDensitySlope(s-u, sigma)
	}, 0, upper, 1e-10, 30)
	return res.I
}

// MSE returns the mean-square error between computed and reference values,
// the Figure 3 metric: (1/N) Σ (F_i − F_i^exact)².
func MSE(computed, exact []float64) float64 {
	if len(computed) != len(exact) {
		panic("analytic: MSE over mismatched lengths")
	}
	if len(computed) == 0 {
		return 0
	}
	var s float64
	for i := range computed {
		d := computed[i] - exact[i]
		s += d * d
	}
	return s / float64(len(computed))
}

// Correlation returns the Pearson correlation between two series, used to
// assert shape agreement between the model forces and the classical wake.
func Correlation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		panic("analytic: correlation over mismatched series")
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	n := float64(len(a))
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

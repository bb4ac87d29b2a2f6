// Package phys provides physical constants and beam-parameter types shared
// by the beam-dynamics simulation packages.
//
// All quantities are in SI units unless a name says otherwise. The constants
// follow CODATA 2014 values, which is what the original ICPP 2017 study
// would have used; the difference from later adjustments is far below the
// simulation's error tolerance.
package phys

import "math"

// Physical constants (SI).
const (
	// C is the speed of light in vacuum, m/s (exact).
	C = 299792458.0
	// ElementaryCharge is the magnitude of the electron charge, C.
	ElementaryCharge = 1.6021766208e-19
	// ElectronMass is the electron rest mass, kg.
	ElectronMass = 9.10938356e-31
	// Epsilon0 is the vacuum permittivity, F/m.
	Epsilon0 = 8.854187817e-12
	// Mu0 is the vacuum permeability, H/m.
	Mu0 = 4e-7 * math.Pi
	// ElectronRestEnergyEV is the electron rest energy, eV.
	ElectronRestEnergyEV = 510998.9461
)

// CoulombConstant is 1/(4*pi*eps0), N*m^2/C^2.
var CoulombConstant = 1.0 / (4 * math.Pi * Epsilon0)

// Beam describes the macroscopic parameters of a charged-particle bunch as
// used throughout the paper's experiments (Section V): a Gaussian bunch of
// total charge Q sampled by N macro-particles.
type Beam struct {
	// NumParticles is the number of macro-particles N sampling the
	// distribution function.
	NumParticles int
	// TotalCharge is the total bunch charge Q in coulombs. The paper uses
	// Q = 1 nC for all experiments.
	TotalCharge float64
	// SigmaX and SigmaY are the transverse and longitudinal RMS beam sizes
	// in metres on the 2-D simulation plane.
	SigmaX, SigmaY float64
	// Energy is the beam kinetic energy in eV (sets the Lorentz factor).
	Energy float64
	// Emittance is the transverse RMS trace-space emittance in m·rad
	// (the paper's validation bunch has 1 nm). Zero means a cold beam
	// with no transverse velocity spread.
	Emittance float64
}

// SigmaXPrime returns the RMS trace-space divergence x' = vx/v at a beam
// waist: emittance / sigma_x. Zero when either is zero.
func (b Beam) SigmaXPrime() float64 {
	if b.Emittance == 0 || b.SigmaX == 0 {
		return 0
	}
	return b.Emittance / b.SigmaX
}

// MacroCharge returns the charge carried by one macro-particle.
func (b Beam) MacroCharge() float64 {
	if b.NumParticles == 0 {
		return 0
	}
	return b.TotalCharge / float64(b.NumParticles)
}

// Gamma returns the relativistic Lorentz factor for the beam energy.
func (b Beam) Gamma() float64 {
	return 1 + b.Energy/ElectronRestEnergyEV
}

// Beta returns v/c for the beam energy.
func (b Beam) Beta() float64 {
	g := b.Gamma()
	return math.Sqrt(1 - 1/(g*g))
}

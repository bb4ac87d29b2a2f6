// Package particles implements the macro-particle ensemble that samples the
// beam's phase-space distribution, along with Monte-Carlo initialisation and
// the leap-frog pusher used by step 4 of the simulation loop (Fig. 1 of the
// paper).
package particles

import (
	"fmt"
	"math"

	"beamdyn/internal/phys"
	"beamdyn/internal/rng"
)

// Particle is one macro-particle on the 2-D simulation plane of the beam
// lattice. X is the horizontal (transverse) coordinate and Y the
// longitudinal coordinate within the bunch frame, following the paper's 2-D
// plane convention. Velocities are in m/s.
type Particle struct {
	X, Y   float64
	VX, VY float64
	// Charge is the macro-particle charge in coulombs.
	Charge float64
}

// Ensemble is a collection of macro-particles plus the beam description
// they sample. The zero value is an empty ensemble.
type Ensemble struct {
	P    []Particle
	Beam phys.Beam
}

// NewGaussian builds an ensemble of beam.NumParticles macro-particles
// Monte-Carlo sampled from a bivariate Gaussian with standard deviations
// (beam.SigmaX, beam.SigmaY) centred at the origin, each carrying an equal
// share of the total charge. The velocity is initialised to the
// longitudinal design velocity beta*c with zero transverse velocity; the
// pusher adds collective-effect kicks on top.
func NewGaussian(beam phys.Beam, seed uint64) *Ensemble {
	src := rng.New(seed)
	e := &Ensemble{
		P:    make([]Particle, beam.NumParticles),
		Beam: beam,
	}
	q := beam.MacroCharge()
	v := beam.Beta() * phys.C
	sigVX := beam.SigmaXPrime() * v
	for i := range e.P {
		gx, gy := src.NormPair()
		vx := 0.0
		if sigVX > 0 {
			vx = src.Norm() * sigVX
		}
		e.P[i] = Particle{
			X:      gx * beam.SigmaX,
			Y:      gy * beam.SigmaY,
			VX:     vx,
			VY:     v,
			Charge: q,
		}
	}
	return e
}

// Len returns the number of macro-particles.
func (e *Ensemble) Len() int { return len(e.P) }

// Stats summarises the ensemble's first and second moments.
type Stats struct {
	MeanX, MeanY   float64
	SigmaX, SigmaY float64
	TotalCharge    float64
}

// Stats computes the ensemble statistics in one pass using Welford's
// algorithm, which stays accurate for large N.
func (e *Ensemble) Stats() Stats {
	var st Stats
	var mx, my, m2x, m2y float64
	for i, p := range e.P {
		n := float64(i + 1)
		dx := p.X - mx
		mx += dx / n
		m2x += dx * (p.X - mx)
		dy := p.Y - my
		my += dy / n
		m2y += dy * (p.Y - my)
		st.TotalCharge += p.Charge
	}
	st.MeanX, st.MeanY = mx, my
	if n := float64(len(e.P)); n > 1 {
		st.SigmaX = math.Sqrt(m2x / n)
		st.SigmaY = math.Sqrt(m2y / n)
	}
	return st
}

// Mean returns the ensemble centroid, bitwise Stats' MeanX and MeanY: the
// same recurrence in the same order, without the second moments and the
// charge.
func (e *Ensemble) Mean() (mx, my float64) {
	for i, p := range e.P {
		n := float64(i + 1)
		mx += (p.X - mx) / n
		my += (p.Y - my) / n
	}
	return mx, my
}

// Force is the self-force (electric field times charge, per unit mass as
// an acceleration) acting on one particle, produced by step 3 of the
// simulation loop.
type Force struct {
	AX, AY float64
}

// Push advances every particle by dt with the leap-frog (kick-drift)
// scheme: velocities live on half-integer time steps, so one step applies
// the full kick from the force evaluated at the current positions and then
// drifts the positions with the updated velocities. With this staggering
// the integrator is the standard second-order symplectic leap-frog the
// paper cites ([15]). forces must have one entry per particle; Push panics
// otherwise, because a mismatch indicates a pipeline bug rather than a
// recoverable condition.
func (e *Ensemble) Push(forces []Force, dt float64) {
	if len(forces) != len(e.P) {
		panic(fmt.Sprintf("particles: %d forces for %d particles", len(forces), len(e.P)))
	}
	for i := range e.P {
		p := &e.P[i]
		f := forces[i]
		p.VX += f.AX * dt
		p.VY += f.AY * dt
		p.X += p.VX * dt
		p.Y += p.VY * dt
	}
}

// Drift advances positions only, used for the predictor half-step when the
// force at the new positions is not yet known.
func (e *Ensemble) Drift(dt float64) {
	for i := range e.P {
		e.P[i].X += e.P[i].VX * dt
		e.P[i].Y += e.P[i].VY * dt
	}
}

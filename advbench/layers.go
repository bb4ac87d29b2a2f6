package main

import (
	"math"
	"time"

	"beamdyn/internal/core"
	"beamdyn/internal/grid"
	"beamdyn/internal/particles"
)

// particleLayers re-runs a step's particle stages directly on a copy of the
// ensemble taken before the step: grid.Deposit, the force stage
// (grid.Gradient over the potential, grid.Interp at every particle) and
// Ensemble.Push (Drift for a rigid bunch). Each stage is timed alone and its
// output compared bitwise with what Advance produced, so the timings are of
// exactly the work the step did.
type particleLayers struct {
	pre []particles.Particle
}

// snapshot copies the ensemble about to be advanced.
func (l *particleLayers) snapshot(sim *core.Simulation) {
	l.pre = append(l.pre[:0], sim.Ensemble.P...)
}

// replay times the three stages on the snapshot, recording them in st, and
// reports whether every stage reproduced the step's output.
func (l *particleLayers) replay(sim *core.Simulation, st *stepTrace) bool {
	cfg := sim.Cfg
	e := &particles.Ensemble{P: l.pre, Beam: sim.Ensemble.Beam}

	// The moment grid, centred on the bunch as core centres it.
	c := e.Stats()
	hx, hy := cfg.PadSigma*cfg.Beam.SigmaX, cfg.PadSigma*cfg.Beam.SigmaY
	g := grid.New(cfg.NX, cfg.NY, grid.MomentComponents, c.MeanX-hx, c.MeanY-hy,
		2*hx/float64(cfg.NX-1), 2*hy/float64(cfg.NY-1))
	t0 := time.Now()
	grid.Deposit(g, e, cfg.Scheme)
	st.Deposit = time.Since(t0)
	ok := sameBits(g.Data, sim.Hist.At(sim.Hist.Latest()).Data)

	t0 = time.Now()
	forces := computeForces(sim.Potential, e, cfg.Scheme, cfg.ForceScale)
	st.Interp = time.Since(t0)
	for i, f := range forces {
		ok = ok && f == sim.Forces[i]
	}

	t0 = time.Now()
	if cfg.Rigid {
		e.Drift(cfg.Dt)
	} else {
		e.Push(sim.Forces, cfg.Dt)
	}
	st.Push = time.Since(t0)
	for i := range e.P {
		ok = ok && e.P[i] == sim.Ensemble.P[i]
	}
	return ok
}

// computeForces is the simulation's force stage: -grad(potential) on a
// fresh force grid, gathered at every particle.
func computeForces(pot *grid.Grid, e *particles.Ensemble, s grid.Scheme, scale float64) []particles.Force {
	fg := grid.New(pot.NX, pot.NY, 2, pot.X0, pot.Y0, pot.DX, pot.DY)
	for iy := 0; iy < pot.NY; iy++ {
		for ix := 0; ix < pot.NX; ix++ {
			gx, gy := grid.Gradient(pot, ix, iy, 0)
			fg.Set(ix, iy, 0, -gx*scale)
			fg.Set(ix, iy, 1, -gy*scale)
		}
	}
	out := make([]particles.Force, e.Len())
	for i := range e.P {
		p := &e.P[i]
		out[i] = particles.Force{
			AX: grid.Interp(fg, p.X, p.Y, 0, s),
			AY: grid.Interp(fg, p.X, p.Y, 1, s),
		}
	}
	return out
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

package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"beamdyn/internal/grid"
	"beamdyn/internal/particles"
)

// referenceForces is the serial force stage the pooled one replaced:
// -grad(potential) on a fresh force grid, then two grid.Interp calls per
// particle.
func referenceForces(pot *grid.Grid, ps []particles.Particle, s grid.Scheme, scale float64) (*grid.Grid, []particles.Force) {
	fg := grid.New(pot.NX, pot.NY, 2, pot.X0, pot.Y0, pot.DX, pot.DY)
	for iy := 0; iy < pot.NY; iy++ {
		for ix := 0; ix < pot.NX; ix++ {
			gx, gy := grid.Gradient(pot, ix, iy, 0)
			fg.Set(ix, iy, 0, -gx*scale)
			fg.Set(ix, iy, 1, -gy*scale)
		}
	}
	out := make([]particles.Force, len(ps))
	for i := range ps {
		out[i] = particles.Force{
			AX: grid.Interp(fg, ps[i].X, ps[i].Y, 0, s),
			AY: grid.Interp(fg, ps[i].X, ps[i].Y, 1, s),
		}
	}
	return fg, out
}

// dynamicConfig is a non-rigid bunch whose forces kick its transverse
// velocities by ~1e4 m/s per step while it stays on the grid, with a prime
// particle count so no tested worker count splits it evenly.
func dynamicConfig() Config {
	cfg := testConfig()
	cfg.Beam.NumParticles = 10007
	cfg.Rigid = false
	cfg.ForceScale = 1e17
	return cfg
}

func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y)
	})
}

// TestParticleStagesWorkerCountDeterministic pins the pooled force gather
// and push under NGP (the default scheme's weight-free gather) and CIC
// (the weighted one): for every HostWorkers value the particles, forces,
// force grid and potentials are bitwise identical, and the last step's
// forces and push match the serial reference stages.
func TestParticleStagesWorkerCountDeterministic(t *testing.T) {
	type result struct {
		p         []particles.Particle
		forces    []particles.Force
		fg, pot   []float64
		refForces []particles.Force
		refFG     []float64
		refPushed []particles.Particle
	}
	for _, scheme := range []grid.Scheme{grid.NGP, grid.CIC} {
		t.Run(scheme.String(), func(t *testing.T) {
			run := func(workers int) result {
				cfg := dynamicConfig()
				cfg.Scheme = scheme
				cfg.HostWorkers = workers
				s := New(cfg)
				s.Warmup()
				s.Run(2)
				pre := slices.Clone(s.Ensemble.P)
				s.Advance()
				refFG, refForces := referenceForces(s.Potential, pre, s.Cfg.Scheme, s.Cfg.ForceScale)
				e := particles.Ensemble{P: pre}
				e.Push(s.Forces, s.Cfg.Dt)
				return result{
					p:         slices.Clone(s.Ensemble.P),
					forces:    slices.Clone(s.Forces),
					fg:        slices.Clone(s.ForceGrid.Data),
					pot:       slices.Clone(s.Potential.Data),
					refForces: refForces,
					refFG:     refFG.Data,
					refPushed: pre,
				}
			}
			base := run(1)
			for _, w := range []int{1, 2, 3, 7} {
				r := base
				if w != 1 {
					r = run(w)
				}
				if !slices.Equal(r.forces, r.refForces) {
					t.Errorf("workers=%d: forces differ from the serial two-Interp force stage", w)
				}
				if !sameFloatBits(r.fg, r.refFG) {
					t.Errorf("workers=%d: force grid differs from the serial force stage's", w)
				}
				if !slices.Equal(r.p, r.refPushed) {
					t.Errorf("workers=%d: pushed particles differ from a serial Ensemble.Push", w)
				}
				if !slices.Equal(r.p, base.p) || !slices.Equal(r.forces, base.forces) {
					t.Errorf("workers=%d: particles or forces differ from workers=1", w)
				}
				if !sameFloatBits(r.fg, base.fg) || !sameFloatBits(r.pot, base.pot) {
					t.Errorf("workers=%d: force grid or potentials differ from workers=1", w)
				}
			}
			nonzero := slices.ContainsFunc(base.forces, func(f particles.Force) bool { return f.AX != 0 || f.AY != 0 })
			if len(base.p) != dynamicConfig().Beam.NumParticles || !nonzero {
				t.Fatalf("degenerate run: %d particles, nonzero forces %t", len(base.p), nonzero)
			}
		})
	}
}

// TestParticleStagesReuseBuffers checks that steady-state steps overwrite
// Forces and ForceGrid in place instead of reallocating them.
func TestParticleStagesReuseBuffers(t *testing.T) {
	s := New(dynamicConfig())
	s.Cfg.HostWorkers = 2
	s.Warmup()
	s.Advance()
	fg, forces, data := s.ForceGrid, &s.Forces[0], &s.ForceGrid.Data[0]
	for i := 0; i < 3; i++ {
		s.Advance()
		if s.ForceGrid != fg || &s.ForceGrid.Data[0] != data {
			t.Fatalf("step %d: ForceGrid reallocated", s.Step-1)
		}
		if &s.Forces[0] != forces || len(s.Forces) != s.Ensemble.Len() {
			t.Fatalf("step %d: Forces reallocated or resized", s.Step-1)
		}
		if pot := s.Potential; fg.X0 != pot.X0 || fg.Y0 != pot.Y0 || fg.DX != pot.DX || fg.DY != pot.DY {
			t.Fatalf("step %d: ForceGrid geometry not re-pointed to the potential's", s.Step-1)
		}
	}
}

// centroidSink keeps BenchmarkParticleStages' centroid from being
// optimized away.
var centroidSink float64

// BenchmarkParticleStages times the particle stages at the particles-1m
// benchmark workload's shape (32x32 grid, 10^6 particles, dynamic bunch):
// the serial bunch centroid (Center), the serial deposit per scheme, and
// the pooled force stage plus push per scheme and worker count, with
// GOMAXPROCS raised to match. Each force-and-push iteration restores the
// same pre-step particles, so every row does identical work. Run with
// -benchmem for allocations.
func BenchmarkParticleStages(b *testing.B) {
	cfg := dynamicConfig()
	cfg.NX, cfg.NY = 32, 32
	cfg.Beam.NumParticles = 1000000
	cfg.ForceScale = 1
	s := New(cfg)
	s.Warmup()
	s.Advance()
	pre := slices.Clone(s.Ensemble.P)
	b.Run("centroid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centroidSink, _ = s.Center()
		}
	})
	g := s.currentGrid()
	for _, scheme := range []grid.Scheme{grid.NGP, grid.CIC} {
		b.Run("deposit/scheme="+scheme.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				grid.Deposit(g, s.Ensemble, scheme)
			}
		})
	}
	for _, scheme := range []grid.Scheme{grid.NGP, grid.CIC} {
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("forces+push/scheme=%v/workers=%d", scheme, w), func(b *testing.B) {
				if n := runtime.NumCPU(); n < w {
					b.Skipf("%d workers need %d CPUs, have %d", w, w, n)
				}
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
				s.Cfg.HostWorkers, s.Cfg.Scheme = w, scheme
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					copy(s.Ensemble.P, pre)
					b.StartTimer()
					s.computeForces(s.Potential)
					s.push()
				}
			})
		}
	}
}

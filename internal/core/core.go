// Package core orchestrates the four-step beam-dynamics simulation loop of
// Figure 1 of the paper: (1) particle deposition, (2) compute retarded
// potentials, (3) compute self-forces, (4) push particles; repeated for N_t
// time steps.
//
// The moment grid is co-moving: each step it is re-centred on the bunch
// centroid before deposition, the standard arrangement for beam-frame CSR
// codes. Each historical grid keeps its own lab-frame origin, so the
// retarded-potential integrand reads sources at their true emission-time
// positions.
//
// Step 2 can run on the sequential host reference (Algo == nil) or on any
// of the three simulated-GPU kernels via the kernels.Algorithm interface;
// that choice is exactly the comparison of the paper's evaluation.
package core

import (
	"fmt"
	"math"
	"time"

	"beamdyn/internal/analytic"
	"beamdyn/internal/diagnostics"
	"beamdyn/internal/grid"
	"beamdyn/internal/hostpar"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/particles"
	"beamdyn/internal/phys"
	"beamdyn/internal/quadrature"
	"beamdyn/internal/retard"
)

// Config describes a simulation run.
type Config struct {
	// Beam gives the physical scenario.
	Beam phys.Beam
	// NX, NY is the moment-grid resolution.
	NX, NY int
	// PadSigma is the half-extent of the grid in units of the beam sigmas
	// (default 5).
	PadSigma float64
	// Dt is the time step; 0 derives it from the longitudinal beam size
	// (c*Dt = SigmaY), which makes the radial subregions resolve the bunch.
	Dt float64
	// Kappa is the retardation depth in subregions (default 6).
	Kappa int
	// Tol is the rp-integral error tolerance tau (default 1e-6, as in the
	// paper's experiments).
	Tol float64
	// WeightExp is the radial kernel exponent (default 1/3, the
	// longitudinal collective-effect kernel).
	WeightExp float64
	// Inner is the inner Newton-Cotes rule. The zero value is
	// quadrature.Trapezoid and defaults leave it alone, so unless a caller
	// sets it (none in this module does) a simulation runs the trapezoid
	// rule.
	Inner quadrature.NewtonCotesOrder
	// Scheme is the deposition/interpolation weighting. The zero value
	// is grid.NGP and defaults leave it alone, so only a caller that sets
	// it (the job catalog sets grid.CIC, the paper's scheme) runs another.
	Scheme grid.Scheme
	// Shape is the sampled longitudinal bunch profile (default Gaussian).
	Shape particles.Shape
	// Seed seeds the Monte-Carlo sampling.
	Seed uint64
	// Rigid freezes the internal bunch distribution: particles translate
	// at the design velocity without force response. This is the 1-D
	// rigid-bunch validation mode of Section V.A.
	Rigid bool
	// Continuum replaces Monte-Carlo deposition by the exact continuum
	// Gaussian density (implies Rigid): the noiseless reference run of
	// the validation experiments. No particles are sampled.
	Continuum bool
	// ForceScale multiplies the interpolated potential gradients when
	// converting to accelerations (default 1; validation compares shapes,
	// not absolute units).
	ForceScale float64
	// HostWorkers bounds the worker count of every host-side parallel
	// stage: the kernels' learning phases (predict, cluster, train), the
	// host reference solver, and the particle cell search, force gather
	// and push; <= 0 means GOMAXPROCS. Results are bitwise identical for
	// any value (see internal/hostpar).
	HostWorkers int
}

func (c *Config) fillDefaults() {
	if c.PadSigma == 0 {
		c.PadSigma = 5
	}
	if c.Dt == 0 {
		c.Dt = c.Beam.SigmaY / phys.C
	}
	if c.Kappa == 0 {
		c.Kappa = 6
	}
	if c.Tol == 0 {
		c.Tol = 1e-6
	}
	if c.WeightExp == 0 {
		c.WeightExp = 1.0 / 3
	}
	if c.ForceScale == 0 {
		c.ForceScale = 1
	}
}

// MaxKappa bounds the retardation depth. The history ring allocates κ+4
// slots before it holds a grid, so an unbounded κ from a checkpoint or a
// job spec could demand gigabytes up front. Every configuration in this
// repository uses κ ≤ 10; the bound leaves two orders of magnitude of
// headroom while the ring's slot arrays stay a few tens of kilobytes.
const MaxKappa = 1024

// MaxGridCells bounds the moment grid's cell count NX·NY. Each history
// slot allocates NX·NY·grid.MomentComponents floats, a product that wraps
// around int for a large enough grid and leaves an empty grid that the
// deposit then indexes out of range. The full-scale runs use 256×256 =
// 2^16 cells; 2^24 cells (4096×4096, 384 MiB per grid) leaves two orders
// of magnitude of headroom and keeps NX·NY·MomentComponents far inside
// int.
const MaxGridCells = 1 << 24

// MaxMemoryBytes bounds a configuration's memory estimate (Config's
// memoryBytes): the history ring plus the per-particle buffers. Each of
// MaxKappa, MaxGridCells and an uncapped particle count is harmless alone,
// but their product is not: at the grid and kappa bounds the history
// alone would take 1028 x 2^24 x 24 B, about 414 GB. The largest
// configuration in this repository, the particles-1m benchmark (32x32,
// kappa 6, 10^6 particles), estimates about 60 MB, two orders of
// magnitude inside this 8 GiB cap.
const MaxMemoryBytes = 8 << 30

// memoryBytes estimates the bytes a simulation of c holds: κ+4 history
// grids of NX·NY cells with grid.MomentComponents float64s each, and per
// particle the particle itself (40 B), its force (16 B) and its NGP cell
// (4 B). It is computed in float64, so no product of accepted factors can
// overflow.
func (c Config) memoryBytes() float64 {
	return 24*float64(c.NX)*float64(c.NY)*float64(c.Kappa+4) + 60*float64(c.Beam.NumParticles)
}

// Validate reports why a simulation cannot run cfg, after the defaults New
// fills in: it is the one place that decides which configurations run.
// New panics with its error, Load returns it, and the job spec and beamsim
// report it as input errors.
func (c Config) Validate() error {
	c.fillDefaults()
	switch {
	case c.NX < 2 || c.NY < 2:
		return fmt.Errorf("core: grid %dx%d too small, want at least 2x2", c.NX, c.NY)
	case c.NX > MaxGridCells/c.NY: // by division: NX·NY itself may overflow
		return fmt.Errorf("core: grid %dx%d has more than %d cells", c.NX, c.NY, MaxGridCells)
	case c.Kappa < 1 || c.Kappa > MaxKappa:
		return fmt.Errorf("core: kappa %d outside [1, %d]", c.Kappa, MaxKappa)
	case c.Beam.NumParticles < 1:
		return fmt.Errorf("core: beam of %d particles, want at least 1", c.Beam.NumParticles)
	case c.Inner < quadrature.Trapezoid || c.Inner > quadrature.Boole:
		return fmt.Errorf("core: unknown inner Newton-Cotes rule %d", c.Inner)
	case c.Scheme < grid.NGP || c.Scheme > grid.CIC:
		return fmt.Errorf("core: unknown deposition scheme %v", c.Scheme)
	case c.Shape < particles.GaussianShape || c.Shape > particles.ParabolicShape:
		return fmt.Errorf("core: unknown bunch shape %v", c.Shape)
	case c.Continuum && c.Shape != particles.GaussianShape:
		return fmt.Errorf("core: continuum mode supports only the Gaussian shape, not %v", c.Shape)
	case c.memoryBytes() > MaxMemoryBytes:
		return fmt.Errorf("core: grid %dx%d, kappa %d and %d particles need about %.3g GB, more than the %d GiB bound",
			c.NX, c.NY, c.Kappa, c.Beam.NumParticles, c.memoryBytes()/1e9, MaxMemoryBytes>>30)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"tol", c.Tol}, {"dt", c.Dt}, {"pad sigma", c.PadSigma},
		{"beam sigma x", c.Beam.SigmaX}, {"beam sigma y", c.Beam.SigmaY},
		{"beam energy", c.Beam.Energy},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("core: %s is %g, want finite and positive", f.name, f.v)
		}
	}
	return nil
}

// Simulation is the running state of a beam-dynamics simulation.
type Simulation struct {
	Cfg      Config
	Ensemble *particles.Ensemble
	Hist     *grid.History
	// Step is the index of the next time step to execute.
	Step int
	// Algo executes the compute-potentials stage on the simulated GPU;
	// nil selects the sequential host reference.
	Algo kernels.Algorithm
	// Potential holds the latest retarded-potential grid (component 0),
	// nil until the history is deep enough to evaluate it.
	Potential *grid.Grid
	// Last holds the kernel step result of the latest potentials
	// computation (nil for the host reference).
	Last *kernels.StepResult
	// Forces holds the per-particle self-forces of the latest step. The
	// slice is overwritten in place by every Advance (it is reallocated
	// only when the ensemble size changes), so copy it to keep a step's
	// forces.
	Forces []particles.Force
	// ForceGrid holds the latest force field (components 0: Fx, 1: Fy),
	// nil until potentials have been computed. Like Forces it is
	// overwritten in place each step, re-pointed to the step's grid
	// geometry and reallocated only when the grid size changes.
	ForceGrid *grid.Grid
	// Obs is the telemetry layer: per-stage spans of the four-step loop,
	// metric series, and predictor-quality samples. nil (the default)
	// disables all instrumentation at near-zero cost; the observer is
	// forwarded to the attached kernel each step, so setting it once here
	// also instruments the kernel's predict/verify/fallback sub-phases.
	Obs *obs.Observer
	// Alerts, when non-nil, is evaluated once at the end of every Advance
	// with the step's runtime signals: wall time, the kernel's fallback
	// behaviour, predictor forecast quality and the physics invariants
	// computed from diagnostics.Analyze. Firing alerts surface through the
	// observer's registry and trace; nil costs one pointer test per step.
	Alerts *alert.Engine

	// cx, cy track the exact bunch centre in continuum mode.
	cx, cy  float64
	dropped int

	// invBase is the physics-invariant baseline (total charge and RMS
	// sizes at the first alert-evaluated step) drift is measured against.
	invBase struct {
		set        bool
		charge     float64
		sigX, sigY float64
	}

	// solver is the persistent host reference solver used when Algo is
	// nil; its per-worker evaluators and arenas are reused across steps,
	// so steady-state reference steps allocate nothing per point.
	solver retard.GridSolver

	// cells holds each particle's NGP cell on the current step's grid
	// (grid.NGPCells), rewritten by every NGP particle deposit and read by
	// the same step's force stage; it is reused across steps.
	cells []int32
}

// New builds a simulation and samples the initial bunch. It panics with
// the Validate error when cfg cannot run.
func New(cfg Config) *Simulation {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg.fillDefaults()
	ebeam := cfg.Beam
	if cfg.Continuum {
		cfg.Rigid = true
		ebeam.NumParticles = 0
	}
	s := &Simulation{
		Cfg:      cfg,
		Ensemble: particles.NewShaped(ebeam, cfg.Shape, cfg.Seed),
		Hist:     grid.NewHistory(cfg.Kappa + 4),
	}
	return s
}

// Dropped returns the cumulative number of particle depositions that fell
// outside the grid (should stay 0 for a well-sized PadSigma).
func (s *Simulation) Dropped() int { return s.dropped }

// Center returns the current bunch centre: the exact centre in continuum
// mode, the ensemble centroid otherwise.
func (s *Simulation) Center() (cx, cy float64) {
	if s.Cfg.Continuum {
		return s.cx, s.cy
	}
	return s.Ensemble.Mean()
}

// currentGrid builds a zeroed moment grid centred on the bunch centroid.
func (s *Simulation) currentGrid() *grid.Grid {
	cx, cy := s.Center()
	b := s.Cfg.Beam
	hx := s.Cfg.PadSigma * b.SigmaX
	hy := s.Cfg.PadSigma * b.SigmaY
	g := grid.New(s.Cfg.NX, s.Cfg.NY, grid.MomentComponents,
		cx-hx, cy-hy,
		2*hx/float64(s.Cfg.NX-1), 2*hy/float64(s.Cfg.NY-1))
	g.Step = s.Step
	return g
}

// Params returns the rp-integral parameters of this simulation.
func (s *Simulation) Params() retard.Params {
	return retard.Params{
		Dt:        s.Cfg.Dt,
		Kappa:     s.Cfg.Kappa,
		Tol:       s.Cfg.Tol,
		Inner:     s.Cfg.Inner,
		WeightExp: s.Cfg.WeightExp,
		Component: grid.CompCharge,
	}
}

// Ready reports whether the history is deep enough to evaluate retarded
// potentials (at least one full subregion's worth of grids: D_{k-2}, ...,
// D_k).
func (s *Simulation) Ready() bool { return s.Hist.Len() >= 3 }

// Advance executes one full time step (deposit, potentials, forces, push)
// and returns the step index it executed.
func (s *Simulation) Advance() int {
	step := s.Step
	var t0 time.Time
	if s.Alerts != nil {
		t0 = time.Now()
	}
	stepSpan := s.Obs.Span("advance", step)
	// Stage spans parent under the step span; with tracing off Scope
	// returns s.Obs unchanged, so the registry path is identical.
	ao := stepSpan.Scope()
	// 1) Particle deposition (or its noiseless continuum limit).
	sp := ao.Span("advance/deposit", step)
	g := s.currentGrid()
	// cells stays nil unless this step found the NGP cells its force
	// stage can reuse: nothing moves the particles before then.
	var cells []int32
	switch {
	case s.Cfg.Continuum:
		cx, cy := s.Center()
		analytic.ContinuumDeposit(g, s.Cfg.Beam, cx, cy)
	case s.Cfg.Scheme == grid.NGP:
		s.dropped += s.depositNGP(g)
		cells = s.cells
	default:
		s.dropped += grid.Deposit(g, s.Ensemble, s.Cfg.Scheme)
	}
	s.Hist.Push(g)
	sp.End(obs.I("dropped_total", s.dropped))

	if s.Ready() {
		// 2) Compute retarded potentials. The kernel (or reference solver)
		// runs under the potentials span's scope, so its sub-phase spans
		// parent correctly in the causal tree.
		sp = ao.Span("advance/potentials", step)
		po := sp.Scope()
		prob := retard.NewProblem(s.Hist, s.Params())
		pot := grid.New(g.NX, g.NY, 1, g.X0, g.Y0, g.DX, g.DY)
		pot.Step = step
		if s.Algo != nil {
			if ob, ok := s.Algo.(kernels.Observable); ok {
				ob.SetObserver(po)
			}
			if hp, ok := s.Algo.(kernels.HostParallel); ok {
				hp.SetHostWorkers(s.Cfg.HostWorkers)
			}
			s.Last = s.Algo.Step(prob, pot, 0)
		} else {
			rsp := po.Span("reference/solve", step)
			s.solver.Workers = s.Cfg.HostWorkers
			if s.Obs != nil {
				s.solver.Obs = s.Obs.Reg
			}
			s.solver.Solve(prob, pot, 0)
			st := s.solver.LastStats()
			rsp.End(obs.I("points", pot.NX*pot.NY),
				obs.F("rp_tile_hits", float64(st.TileHits)),
				obs.F("rp_tile_solves", float64(st.TileSolves)),
				obs.F("rp_memo_reuse", float64(st.MemoHits)),
				obs.F("rp_memo_probe", float64(st.MemoProbes)),
				obs.I("rp_tile_w", st.TileW),
				obs.I("rp_tile_h", st.TileH))
			s.Last = nil
		}
		s.Potential = pot
		if s.Last != nil {
			sp.End(obs.S("kernel", s.Algo.Name()),
				obs.F("sim_sec", s.Last.Metrics.Time),
				obs.I("fallback_entries", s.Last.FallbackEntries))
		} else {
			sp.End(obs.S("kernel", "host-reference"))
		}

		// 3) Compute self-forces by interpolating the potential gradient.
		sp = ao.Span("advance/forces", step)
		s.computeForces(pot, cells)
		sp.End()
	} else {
		s.Forces = hostpar.Resize(s.Forces, s.Ensemble.Len())
		clear(s.Forces)
	}

	// 4) Push particles.
	sp = ao.Span("advance/push", step)
	s.push()
	if s.Cfg.Continuum {
		s.cy += s.Cfg.Beam.Beta() * phys.C * s.Cfg.Dt
	}
	sp.End(obs.I("particles", s.Ensemble.Len()))
	s.Step++
	if s.Obs != nil && s.Obs.Reg != nil {
		s.Obs.Reg.Counter("sim_steps_total").Inc()
		s.Obs.Reg.Gauge("sim_step").Set(float64(s.Step))
	}
	stepSpan.End()
	if s.Alerts != nil {
		s.evalAlerts(step, time.Since(t0).Seconds())
	}
	return step
}

// evalAlerts assembles the step's alert-engine input — kernel fallback
// behaviour, predictor quality and the physics-invariant drifts — and
// evaluates the rule set. The predictor signals come from the step result
// the caller sees (for a fleet, all bands in band order), and only from a
// step its kernel planned from a trained forecast: Two-Phase-RP, warm-up
// and bootstrap steps refine a uniform seed, which says nothing about a
// forecast. The invariant gauges are only computed here, so runs without
// an alert engine pay nothing for them.
func (s *Simulation) evalAlerts(step int, wallSec float64) {
	in := alert.Input{Step: step, StepSeconds: wallSec}
	if r := s.Last; r != nil && r.Forecast && len(r.Points) > 0 {
		in.HasPredictor = true
		in.FallbackEntries = float64(r.FallbackEntries)
		in.FallbackRate = in.FallbackEntries / float64(len(r.Points))
		in.ErrMean, _, in.ErrP90, in.ErrMax = obs.SummarizeErrors(r.ForecastErr)
	}
	if s.Ensemble.Len() > 0 {
		sum := diagnostics.Analyze(s.Ensemble)
		if !s.invBase.set {
			s.invBase.set = true
			s.invBase.charge = sum.TotalCharge
			s.invBase.sigX, s.invBase.sigY = sum.SigmaX, sum.SigmaY
		}
		in.HasPhysics = true
		in.ChargeDrift = relDrift(sum.TotalCharge, s.invBase.charge)
		in.MomentDrift = math.Max(relDrift(sum.SigmaX, s.invBase.sigX),
			relDrift(sum.SigmaY, s.invBase.sigY))
		if s.Obs != nil && s.Obs.Reg != nil {
			s.Obs.Reg.Gauge("beam_total_charge").Set(sum.TotalCharge)
			s.Obs.Reg.Gauge("beam_charge_drift").Set(in.ChargeDrift)
			s.Obs.Reg.Gauge("beam_moment_drift").Set(in.MomentDrift)
		}
	}
	s.Alerts.Eval(in)
}

// relDrift is the relative deviation of v from its baseline (absolute
// when the baseline is zero).
func relDrift(v, base float64) float64 {
	d := math.Abs(v - base)
	if base == 0 {
		return d
	}
	return d / math.Abs(base)
}

// depositNGP deposits the ensemble on g under NGP in two passes and
// returns the number dropped. The cell search is independent per
// particle, so it runs over static hostpar ranges into s.cells; only the
// accumulation, which must add the particles in ensemble order, stays
// serial. The grid is bitwise grid.Deposit's for every worker count.
func (s *Simulation) depositNGP(g *grid.Grid) (dropped int) {
	ps := s.Ensemble.P
	s.cells = hostpar.Resize(s.cells, len(ps))
	cells := s.cells
	hostpar.For(len(ps), s.Cfg.HostWorkers, func(_, lo, hi int) {
		grid.NGPCells(g, ps[lo:hi], cells[lo:hi])
	})
	return grid.DepositCells(g, ps, cells)
}

// computeForces evaluates -grad(potential) on ForceGrid and gathers both
// components at every particle into Forces, one gather call per static
// hostpar range. A non-nil cells must be the particles' NGP cells on
// pot's geometry at their current positions, as Advance's deposit found
// them; the gather then reads the forces from them (grid.GatherCells)
// instead of locating every particle again (grid.GatherForces). Either
// way each force is bitwise that of two grid.Interp calls and each worker
// writes only its own range, so the forces are identical for every worker
// count. ForceGrid and Forces are reused across steps.
func (s *Simulation) computeForces(pot *grid.Grid, cells []int32) {
	fg := s.ForceGrid
	if fg == nil || fg.NX != pot.NX || fg.NY != pot.NY {
		fg = grid.New(pot.NX, pot.NY, 2, pot.X0, pot.Y0, pot.DX, pot.DY)
		s.ForceGrid = fg
	}
	fg.X0, fg.Y0, fg.DX, fg.DY = pot.X0, pot.Y0, pot.DX, pot.DY
	for iy := 0; iy < pot.NY; iy++ {
		for ix := 0; ix < pot.NX; ix++ {
			gx, gy := grid.Gradient(pot, ix, iy, 0)
			fg.Set(ix, iy, 0, -gx*s.Cfg.ForceScale)
			fg.Set(ix, iy, 1, -gy*s.Cfg.ForceScale)
		}
	}
	ps := s.Ensemble.P
	s.Forces = hostpar.Resize(s.Forces, len(ps))
	forces, scheme := s.Forces, s.Cfg.Scheme
	hostpar.For(len(ps), s.Cfg.HostWorkers, func(_, lo, hi int) {
		if cells != nil {
			grid.GatherCells(fg, cells[lo:hi], forces[lo:hi])
		} else {
			grid.GatherForces(fg, ps[lo:hi], scheme, forces[lo:hi])
		}
	})
}

// push advances the ensemble by one time step over static particle
// ranges on the hostpar pool, running the ensemble's own Drift (rigid
// bunch: the distribution translates at the design velocity without
// responding to the self-forces) or leap-frog Push on each range.
func (s *Simulation) push() {
	ps, forces := s.Ensemble.P, s.Forces
	dt, rigid := s.Cfg.Dt, s.Cfg.Rigid
	hostpar.For(len(ps), s.Cfg.HostWorkers, func(_, lo, hi int) {
		part := particles.Ensemble{P: ps[lo:hi]}
		if rigid {
			part.Drift(dt)
		} else {
			part.Push(forces[lo:hi], dt)
		}
	})
}

// ForceAt interpolates the latest force field at (x, y); it returns zeros
// until potentials have been computed.
func (s *Simulation) ForceAt(x, y float64) particles.Force {
	if s.ForceGrid == nil {
		return particles.Force{}
	}
	return particles.Force{
		AX: grid.Interp(s.ForceGrid, x, y, 0, s.Cfg.Scheme),
		AY: grid.Interp(s.ForceGrid, x, y, 1, s.Cfg.Scheme),
	}
}

// Run advances the simulation n steps.
func (s *Simulation) Run(n int) {
	for i := 0; i < n; i++ {
		s.Advance()
	}
}

// Warmup advances just enough steps to fill the retardation history so the
// next Advance computes potentials at full depth.
func (s *Simulation) Warmup() {
	for s.Hist.Len() < s.Cfg.Kappa+3 {
		s.Advance()
	}
}

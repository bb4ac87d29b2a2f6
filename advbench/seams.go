package main

import (
	"runtime"
	"time"

	"beamdyn/internal/core"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/grid"
	"beamdyn/internal/kernels"
	"beamdyn/internal/retard"
)

// maxLaunches bounds the launches one kernel step makes (Two-Phase-RP runs
// at most retard's MaxDepth refinement rounds after its uniform pass); the
// per-step launch buffer is sized to it so recording never allocates inside
// the potentials stage it is measuring.
const maxLaunches = 32

// launchTrace is one simulated-GPU launch of a traced step.
type launchTrace struct {
	Name string
	// Wall is the host interval that ends at the launch's Recorder
	// callback and starts at the previous seam event of the step: the
	// potentials seam's entry or the previous launch's callback. The first
	// launch's interval is reduced by the step's predict and cluster phase
	// times, which run inside it.
	Wall time.Duration
	// Sim is the launch's simulated K40 time.
	Sim float64
}

// stepTrace is everything the seams observed during one traced Advance.
type stepTrace struct {
	Advance    time.Duration
	Potentials time.Duration // kernel Step, or GridSolver.Solve for the host reference
	// AdvanceAlloc and PotAlloc are heap bytes allocated during Advance and
	// during its potentials stage; PotMallocs counts the potentials stage's
	// heap objects.
	AdvanceAlloc, PotAlloc, PotMallocs uint64

	// Kernel workloads.
	Host     kernels.HostTimes
	Launches []launchTrace
	Fallback int
	Metrics  gpusim.Metrics
	Replay   gpusim.ReplayStats

	// Host-reference workloads.
	Solve retard.SolveStats

	// Particle stages, re-run directly on a copy of the pre-step state.
	Deposit, Interp, Push time.Duration
}

// tracer times each layer of a traced Advance from outside, through public
// seams the simulation already calls: a kernels.Algorithm wrapper around
// the kernel (or an Algorithm adapter over a persistent GridSolver for the
// host reference), and a gpusim Recorder on the device. Recording is off
// unless a traced step is in flight, so untraced steps pay only one extra
// interface call.
type tracer struct {
	on       bool
	cur      stepTrace
	launches [maxLaunches]launchTrace
	mark     time.Time // start of the current launch interval
	mem      runtime.MemStats

	// setupFallback counts the safety-net entries of every kernel step
	// the tracer saw, traced or not (read after Warmup, it is set-up's).
	setupFallback int
}

// install wraps algo (nil for the host reference) in the tracer's seams
// and attaches the launch recorder to dev. The returned Algorithm is what
// the simulation must run.
func (tr *tracer) install(algo kernels.Algorithm, dev *gpusim.Device) kernels.Algorithm {
	if algo == nil {
		return &solverAdapter{tr: tr}
	}
	if dev != nil {
		dev.AttachRecorder(launchRecorder{tr})
	}
	return &timedAlgo{Algorithm: algo, tr: tr}
}

// advance runs one Advance, traced when traced is set.
func (tr *tracer) advance(sim *core.Simulation, traced bool) time.Duration {
	if !traced {
		t0 := time.Now()
		sim.Advance()
		return time.Since(t0)
	}
	tr.cur = stepTrace{Launches: tr.launches[:0]}
	runtime.ReadMemStats(&tr.mem)
	a0 := tr.mem.TotalAlloc
	tr.on = true
	t0 := time.Now()
	sim.Advance()
	d := time.Since(t0)
	tr.on = false
	runtime.ReadMemStats(&tr.mem)
	tr.cur.Advance = d
	tr.cur.AdvanceAlloc = tr.mem.TotalAlloc - a0
	// Detach the launches from the buffer the next traced step reuses.
	tr.cur.Launches = append([]launchTrace(nil), tr.cur.Launches...)
	return d
}

// potentials times the potentials stage run by solve and its allocations.
func (tr *tracer) potentials(solve func()) {
	if !tr.on {
		solve()
		return
	}
	runtime.ReadMemStats(&tr.mem)
	b0, n0 := tr.mem.TotalAlloc, tr.mem.Mallocs
	t0 := time.Now()
	tr.mark = t0
	solve()
	tr.cur.Potentials = time.Since(t0)
	runtime.ReadMemStats(&tr.mem)
	tr.cur.PotAlloc = tr.mem.TotalAlloc - b0
	tr.cur.PotMallocs = tr.mem.Mallocs - n0
}

// timedAlgo is the kernels.Algorithm seam around a kernel's Step. It
// forwards HostParallel, so the simulation drives the kernel exactly as it
// would unwrapped; it hides Observable, which only matters when the
// simulation's Obs is set, and the benchmark leaves it nil.
type timedAlgo struct {
	kernels.Algorithm
	tr *tracer
}

func (a *timedAlgo) SetHostWorkers(n int) {
	if hp, ok := a.Algorithm.(kernels.HostParallel); ok {
		hp.SetHostWorkers(n)
	}
}

func (a *timedAlgo) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	var res *kernels.StepResult
	a.tr.potentials(func() { res = a.Algorithm.Step(p, target, comp) })
	a.tr.setupFallback += res.FallbackEntries
	if a.tr.on {
		c := &a.tr.cur
		c.Host, c.Fallback, c.Metrics = res.Host, res.FallbackEntries, res.Metrics
		if len(c.Launches) > 0 {
			// Predict and cluster run between the seam's entry and the
			// first launch; they are timed by the kernel itself.
			inner := time.Duration((res.Host.Predict + res.Host.Clustering) * 1e9)
			c.Launches[0].Wall = max(c.Launches[0].Wall-inner, 0)
		}
	}
	return res
}

// solverAdapter is the host reference behind the kernels.Algorithm
// interface: a persistent retard.GridSolver, exactly what the simulation
// runs when its Algo is nil.
type solverAdapter struct {
	solver retard.GridSolver
	res    kernels.StepResult
	tr     *tracer
}

func (s *solverAdapter) Name() string         { return "host-reference" }
func (s *solverAdapter) Reset()               {}
func (s *solverAdapter) SetHostWorkers(n int) { s.solver.Workers = n }

func (s *solverAdapter) Step(p *retard.Problem, target *grid.Grid, comp int) *kernels.StepResult {
	s.tr.potentials(func() { s.solver.Solve(p, target, comp) })
	if s.tr.on {
		s.tr.cur.Solve = s.solver.LastStats()
	}
	return &s.res
}

// launchRecorder timestamps each launch's completion and collects its
// simulated time and replay counts.
type launchRecorder struct{ tr *tracer }

func (r launchRecorder) Record(name string, m gpusim.Metrics) {
	tr := r.tr
	if !tr.on {
		return
	}
	now := time.Now()
	if len(tr.cur.Launches) < maxLaunches {
		tr.cur.Launches = append(tr.cur.Launches, launchTrace{Name: name, Wall: now.Sub(tr.mark), Sim: m.Time})
	}
	tr.mark = now
}

func (r launchRecorder) RecordReplay(_ string, s gpusim.ReplayStats) {
	if !r.tr.on {
		return
	}
	t := &r.tr.cur.Replay
	t.WarpInsts += s.WarpInsts
	t.MRUHits += s.MRUHits
	t.SortFallbacks += s.SortFallbacks
}

// Package beamdyn is a pure-Go reproduction of "A Machine Learning
// Approach for Efficient Parallel Simulation of Beam Dynamics on GPUs"
// (Arumugam et al., ICPP 2017).
//
// The library simulates 2-D charged-particle beam dynamics with
// high-fidelity retarded-potential collective effects (the paper's
// four-step loop: deposit, compute potentials, self-forces, push) and
// reproduces the paper's GPU study on a built-in trace-driven SIMT GPU
// simulator standing in for the NVIDIA Tesla K40: warp divergence,
// memory coalescing and a two-level cache hierarchy are modelled, so the
// three compared kernels — Two-Phase-RP [9], Heuristic-RP [10] and this
// paper's machine-learning Predictive-RP (Algorithm 1) — exhibit the
// profiler behaviour the paper reports.
//
// Quick start:
//
//	cfg := beamdyn.DefaultConfig()
//	sim := beamdyn.New(cfg)
//	sim.Algo = beamdyn.NewKernel(beamdyn.PredictiveRP)
//	sim.Warmup()
//	sim.Advance()
//	fmt.Println(sim.Last.Metrics)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced tables and figures.
package beamdyn

import (
	"fmt"
	"io"

	"beamdyn/internal/core"
	"beamdyn/internal/experiments"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/phys"
	"beamdyn/internal/roofline"
)

// Config describes a simulation run: beam, grid resolution, retardation
// depth and tolerance.
type Config = core.Config

// Simulation is a running beam-dynamics simulation (the four-step loop of
// the paper's Figure 1).
type Simulation = core.Simulation

// Beam holds the bunch parameters (N, Q, sigmas, energy).
type Beam = phys.Beam

// Algorithm is a compute-retarded-potentials kernel running on the
// simulated GPU.
type Algorithm = kernels.Algorithm

// Metrics holds simulated-GPU profiler counters (warp execution
// efficiency, global load efficiency, cache hit rates, arithmetic
// intensity, Gflop/s).
type Metrics = gpusim.Metrics

// StepResult is the outcome of one compute-potentials step executed by a
// kernel.
type StepResult = kernels.StepResult

// Device is the simulated GPU; DeviceConfig its hardware description.
type (
	// Device is a simulated GPU.
	Device = gpusim.Device
	// DeviceConfig describes simulated-GPU hardware.
	DeviceConfig = gpusim.Config
)

// Kernel selects one of the paper's three parallel algorithms.
type Kernel int

// The three kernels the paper compares, in historical order.
const (
	// TwoPhaseRP is the globally adaptive parallel quadrature of [9].
	TwoPhaseRP Kernel = iota
	// HeuristicRP is the cache-aware heuristic algorithm of [10], the
	// fastest prior method.
	HeuristicRP
	// PredictiveRP is this paper's machine-learning algorithm
	// (Algorithm 1).
	PredictiveRP
)

// String returns the kernel's paper name.
func (k Kernel) String() string {
	switch k {
	case TwoPhaseRP:
		return "Two-Phase-RP"
	case HeuristicRP:
		return "Heuristic-RP"
	case PredictiveRP:
		return "Predictive-RP"
	}
	return fmt.Sprintf("Kernel(%d)", int(k))
}

// KeplerK40 returns the simulated-hardware description of the paper's
// NVIDIA Tesla K40.
func KeplerK40() DeviceConfig { return gpusim.KeplerK40() }

// NewDevice creates a simulated GPU.
func NewDevice(cfg DeviceConfig) *Device { return gpusim.New(cfg) }

// NewKernel constructs the selected kernel on a fresh simulated K40.
func NewKernel(k Kernel) Algorithm { return NewKernelOn(k, NewDevice(KeplerK40())) }

// NewKernelOn constructs the selected kernel on an existing device.
func NewKernelOn(k Kernel, dev *Device) Algorithm {
	switch k {
	case TwoPhaseRP:
		return kernels.NewTwoPhase(dev)
	case HeuristicRP:
		return kernels.NewHeuristic(dev)
	case PredictiveRP:
		return kernels.NewPredictive(dev)
	}
	panic(fmt.Sprintf("beamdyn: unknown kernel %v", k))
}

// NewPredictive constructs the Predictive-RP kernel with access to all its
// tuning knobs (prediction model, partition transform, clustering mode).
func NewPredictive(dev *Device) *kernels.Predictive { return kernels.NewPredictive(dev) }

// PascalP100 returns the simulated-hardware description of a Tesla P100,
// for cross-generation studies.
func PascalP100() DeviceConfig { return gpusim.PascalP100() }

// NewMultiGPU runs the selected kernel data-parallel across several
// simulated K40s (strong scaling over grid-row bands): a fleet.Fleet over
// healthy devices with one band per device.
func NewMultiGPU(k Kernel, devices int) Algorithm {
	devs := make([]*Device, devices)
	for d := range devs {
		devs[d] = NewDevice(KeplerK40())
		devs[d].SetLabel(fmt.Sprintf("dev%d", d))
	}
	return fleet.New(fleet.Config{
		Devices: devs,
		MakeKernel: func(id int, dev *Device) kernels.Algorithm {
			return NewKernelOn(k, dev)
		},
	})
}

// Observer is the unified telemetry layer: a span tracer over the
// four-step loop and the kernels' predict/verify/fallback sub-phases, a
// metrics registry, and a predictor-quality monitor. Assign one to
// Simulation.Obs; a nil observer disables all instrumentation at
// near-zero cost.
type Observer = obs.Observer

// NewObserver returns a telemetry layer with a live metrics registry and
// predictor monitor; attach a trace sink via Observer.Trace.
func NewObserver() *Observer { return obs.New() }

// New builds a simulation and samples the initial bunch. The compute-
// potentials stage runs on the sequential host reference until sim.Algo is
// set to a kernel.
func New(cfg Config) *Simulation { return core.New(cfg) }

// LoadCheckpoint restores a simulation saved with (*Simulation).Save. The
// restored simulation has no kernel attached; set Algo before advancing if
// a simulated-GPU kernel is wanted.
func LoadCheckpoint(r io.Reader) (*Simulation, error) { return core.Load(r) }

// DefaultConfig returns the paper's baseline scenario: a 1 nC Gaussian
// bunch of the LCLS validation beam (50 um long, 4.3 GeV), 1e5
// macro-particles on a 64x64 grid, rigid-bunch mode. The 2-D co-moving
// model has no bend geometry, so the paper's LCLS bend (R0 = 25.13 m,
// 11.4 degrees) enters no computation; only its beam is reproduced.
func DefaultConfig() Config {
	return Config{
		Beam: Beam{
			NumParticles: 100000,
			TotalCharge:  1e-9,
			SigmaX:       20e-6,
			SigmaY:       50e-6,
			Energy:       4.3e9,
		},
		NX: 64, NY: 64,
		Kappa: 6,
		Tol:   1e-8,
		Seed:  1,
		Rigid: true,
	}
}

// Roofline builds the roofline model (the paper's Figure 4 chart) for a
// device configuration; add measured kernels with AddKernel.
func Roofline(cfg DeviceConfig) *roofline.Model { return roofline.New(cfg) }

// ExperimentScale selects experiment sizing for the table/figure
// regenerators.
type ExperimentScale = experiments.Scale

// Experiment scales.
const (
	// ScaleFull runs the paper's configurations.
	ScaleFull = experiments.Full
	// ScaleMedium caps grids at 128x128.
	ScaleMedium = experiments.Medium
	// ScaleQuick is CI-sized.
	ScaleQuick = experiments.Quick
)

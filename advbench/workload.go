package main

import (
	"fmt"
	"time"

	"beamdyn"
	"beamdyn/internal/core"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
)

// workload is one named benchmark input: a scenario on the LCLS bend
// (kappa = 6, tau = 1e-8) at a grid size, particle count and kernel.
type workload struct {
	Name   string `json:"name"`
	Kernel string `json:"kernel"` // predictive, twophase, heuristic or reference
	Grid   int    `json:"grid"`
	N      int    `json:"n"`
	Rigid  bool   `json:"rigid"`
}

// workloads lists the benchmark's workloads; README.md says why each was
// chosen.
var workloads = []workload{
	{Name: "predictive-128", Kernel: "predictive", Grid: 128, N: 100000, Rigid: true},
	{Name: "twophase-128", Kernel: "twophase", Grid: 128, N: 100000, Rigid: true},
	{Name: "reference-128", Kernel: "reference", Grid: 128, N: 100000, Rigid: true},
	{Name: "particles-1m", Kernel: "reference", Grid: 32, N: 1000000, Rigid: false},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the paper's baseline scenario resized to the workload; the seed
// drives the Monte-Carlo sampling of the bunch.
func (w workload) config(seed uint64) core.Config {
	cfg := beamdyn.DefaultConfig()
	cfg.NX, cfg.NY = w.Grid, w.Grid
	cfg.Beam.NumParticles = w.N
	cfg.Rigid = w.Rigid
	cfg.Seed = seed
	return cfg
}

// newKernel builds the workload's kernel on a fresh simulated K40; the
// host reference returns a nil kernel and device.
func (w workload) newKernel() (kernels.Algorithm, *gpusim.Device) {
	var mk func(*gpusim.Device) kernels.Algorithm
	switch w.Kernel {
	case "predictive":
		mk = func(d *gpusim.Device) kernels.Algorithm { return kernels.NewPredictive(d) }
	case "twophase":
		mk = func(d *gpusim.Device) kernels.Algorithm { return kernels.NewTwoPhase(d) }
	case "heuristic":
		mk = func(d *gpusim.Device) kernels.Algorithm { return kernels.NewHeuristic(d) }
	default:
		return nil, nil
	}
	dev := gpusim.New(gpusim.KeplerK40())
	return mk(dev), dev
}

// setUp builds a simulation of w and advances it through Warmup, returning
// the time from core.New to Warmup's return. With a tracer, the layer seams
// are installed before Warmup, so the simulation never runs without them.
func setUp(w workload, seed uint64, tr *tracer) (*core.Simulation, time.Duration) {
	t0 := time.Now()
	sim := core.New(w.config(seed))
	algo, dev := w.newKernel()
	if tr != nil {
		algo = tr.install(algo, dev)
	}
	sim.Algo = algo
	sim.Warmup()
	return sim, time.Since(t0)
}

package kernels

import (
	"sort"
	"testing"

	"beamdyn/internal/gpusim"
)

// TestKernelsEngineEquivalence is the streaming replay engine's contract
// at the algorithm level: every kernel — heuristic, predictive, twophase
// (whose shared fixedPhase pass is compared through res.Fixed), and the
// multi-GPU decomposition — produces bitwise-identical grid output and
// ==-equal Metrics (total and per-phase) whether its device replays with
// the streaming engine or the pre-streaming oracle.
//
// The fixture is built once and shared (identical history addresses), and
// every (algorithm, engine) pair gets a fresh device so neither engine
// inherits the other's cache state.
func TestKernelsEngineEquivalence(t *testing.T) {
	type stepOut struct {
		data                    []float64
		metrics, fixed, adaptiv gpusim.Metrics
	}

	p, target := fixture(8, 16)

	runAlgo := func(name string, engine gpusim.Engine) []stepOut {
		dev := gpusim.New(gpusim.KeplerK40())
		dev.SetEngine(engine)
		algo := algorithms(dev)[name]
		var out []stepOut
		for step := 0; step < 2; step++ {
			tg := target.Clone()
			tg.Step = p.Step + step
			res := algo.Step(p, tg, 0)
			out = append(out, stepOut{
				data:    append([]float64(nil), tg.Data...),
				metrics: res.Metrics,
				fixed:   res.Fixed,
				adaptiv: res.Adaptive,
			})
		}
		return out
	}

	var names []string
	for name := range algorithms(gpusim.New(gpusim.KeplerK40())) {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		ss := runAlgo(name, gpusim.EngineStreaming)
		os := runAlgo(name, gpusim.EngineOracle)
		for step := range ss {
			s, o := ss[step], os[step]
			for i := range s.data {
				if s.data[i] != o.data[i] {
					t.Fatalf("%s step %d: grid datum %d = %v streaming, %v oracle", name, step, i, s.data[i], o.data[i])
				}
			}
			if s.metrics != o.metrics {
				t.Fatalf("%s step %d: Metrics diverge\nstreaming: %+v\noracle:    %+v", name, step, s.metrics, o.metrics)
			}
			if s.fixed != o.fixed {
				t.Fatalf("%s step %d: fixed-phase Metrics diverge\nstreaming: %+v\noracle:    %+v", name, step, s.fixed, o.fixed)
			}
			if s.adaptiv != o.adaptiv {
				t.Fatalf("%s step %d: adaptive-phase Metrics diverge\nstreaming: %+v\noracle:    %+v", name, step, s.adaptiv, o.adaptiv)
			}
		}
	}
}

// TestMultiGPUEngineEquivalence runs the band-decomposed multi-GPU kernel
// with every device on one engine, then the other: the aggregated Metrics
// (deterministic — per-device modelled times, reassembled in band order)
// and output grids must match exactly.
func TestMultiGPUEngineEquivalence(t *testing.T) {
	p, target := fixture(8, 16)

	run := func(engine gpusim.Engine) (*StepResult, []float64) {
		mg := NewMultiGPU(2, func(int) Algorithm {
			dev := gpusim.New(gpusim.KeplerK40())
			dev.SetEngine(engine)
			return NewTwoPhase(dev)
		})
		tg := target.Clone()
		res := mg.Step(p, tg, 0)
		return res, append([]float64(nil), tg.Data...)
	}

	sres, sdata := run(gpusim.EngineStreaming)
	ores, odata := run(gpusim.EngineOracle)
	for i := range sdata {
		if sdata[i] != odata[i] {
			t.Fatalf("grid datum %d = %v streaming, %v oracle", i, sdata[i], odata[i])
		}
	}
	if sres.Metrics != ores.Metrics {
		t.Fatalf("multigpu Metrics diverge\nstreaming: %+v\noracle:    %+v", sres.Metrics, ores.Metrics)
	}
	if sres.Fixed != ores.Fixed || sres.Adaptive != ores.Adaptive {
		t.Fatalf("multigpu phase Metrics diverge\nstreaming: %+v / %+v\noracle:    %+v / %+v",
			sres.Fixed, sres.Adaptive, ores.Fixed, ores.Adaptive)
	}
}

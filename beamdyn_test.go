package beamdyn

import (
	"math"
	"strings"
	"testing"
)

// smallConfig shrinks the default scenario for fast public-API tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Beam.NumParticles = 10000
	cfg.NX, cfg.NY = 24, 24
	cfg.Kappa = 4
	return cfg
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	sim := New(smallConfig())
	sim.Algo = NewKernel(PredictiveRP)
	sim.Warmup()
	sim.Advance()
	if sim.Last == nil {
		t.Fatal("no step result")
	}
	m := sim.Last.Metrics
	if m.Flops == 0 || m.Time <= 0 {
		t.Fatal("kernel recorded no work")
	}
	if sim.Potential == nil || sim.Potential.MaxAbs(0) <= 0 {
		t.Fatal("no potential computed")
	}
}

func TestAllPublicKernelsProduceSamePhysics(t *testing.T) {
	ref := New(smallConfig())
	ref.Warmup()
	ref.Advance()
	scale := ref.Potential.MaxAbs(0)
	for _, k := range []Kernel{TwoPhaseRP, HeuristicRP, PredictiveRP} {
		sim := New(smallConfig())
		sim.Algo = NewKernel(k)
		sim.Warmup()
		sim.Advance()
		var worst float64
		for i := range ref.Potential.Data {
			d := math.Abs(ref.Potential.Data[i]-sim.Potential.Data[i]) / scale
			if d > worst {
				worst = d
			}
		}
		if worst > 0.02 {
			t.Errorf("%v deviates from reference by %g", k, worst)
		}
	}
}

func TestKernelNames(t *testing.T) {
	if TwoPhaseRP.String() != "Two-Phase-RP" ||
		HeuristicRP.String() != "Heuristic-RP" ||
		PredictiveRP.String() != "Predictive-RP" {
		t.Fatal("kernel names wrong")
	}
	if !strings.HasPrefix(Kernel(99).String(), "Kernel(") {
		t.Fatal("unknown kernel must still format")
	}
}

func TestNewKernelOnSharedDevice(t *testing.T) {
	dev := NewDevice(KeplerK40())
	a := NewKernelOn(PredictiveRP, dev)
	b := NewKernelOn(HeuristicRP, dev)
	if a.Name() == b.Name() {
		t.Fatal("kernels confused")
	}
}

func TestRooflineFacade(t *testing.T) {
	m := Roofline(KeplerK40())
	if m.Attainable(100) != KeplerK40().PeakGflops {
		t.Fatal("compute ceiling wrong")
	}
}

func TestDefaultConfigIsPaperScenario(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Beam.TotalCharge != 1e-9 {
		t.Fatal("bunch charge must be the paper's 1 nC")
	}
	if cfg.Beam.SigmaY != 50e-6 {
		t.Fatal("bunch length must be the paper's 50 um")
	}
}

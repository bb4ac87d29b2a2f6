package core

import (
	"math"
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/particles"
	"beamdyn/internal/phys"
)

// testConfig returns a small, fast configuration exercising the full
// pipeline.
func testConfig() Config {
	return Config{
		Beam: phys.Beam{
			NumParticles: 20000,
			TotalCharge:  1e-9,
			SigmaX:       20e-6,
			SigmaY:       50e-6,
			Energy:       4.3e9,
		},
		NX: 24, NY: 24,
		Kappa: 4,
		Tol:   1e-8,
		Seed:  42,
		Rigid: true,
	}
}

func TestSimulationDepositsAndComputesPotentials(t *testing.T) {
	s := New(testConfig())
	s.Warmup()
	if s.Potential == nil {
		t.Fatal("no potential after warmup")
	}
	if s.Dropped() != 0 {
		t.Fatalf("%d particles dropped off grid", s.Dropped())
	}
	max := s.Potential.MaxAbs(0)
	if max <= 0 || math.IsNaN(max) {
		t.Fatalf("potential max %g, want positive finite", max)
	}
	// Total deposited charge must match the bunch charge (CIC conserves
	// charge for in-bounds particles). Total(0) integrates density over
	// cells, so multiply by the cell area.
	g := s.Hist.At(s.Hist.Latest())
	q := g.Total(0) * g.DX * g.DY
	if rel := math.Abs(q-1e-9) / 1e-9; rel > 1e-9 {
		t.Fatalf("deposited charge %g, want 1e-9 (rel err %g)", q, rel)
	}
}

func TestContinuumMatchesLargeNParticles(t *testing.T) {
	// The continuum run is the N->inf limit of the sampled run: with many
	// particles the two potentials must agree closely.
	cfg := testConfig()
	cfg.Beam.NumParticles = 200000
	sampled := New(cfg)
	sampled.Warmup()

	ccfg := testConfig()
	ccfg.Continuum = true
	cont := New(ccfg)
	cont.Warmup()

	if cont.Potential == nil || sampled.Potential == nil {
		t.Fatal("missing potentials")
	}
	scale := cont.Potential.MaxAbs(0)
	if scale == 0 {
		t.Fatal("continuum potential identically zero")
	}
	var worst float64
	for i := range cont.Potential.Data {
		d := math.Abs(cont.Potential.Data[i]-sampled.Potential.Data[i]) / scale
		if d > worst {
			worst = d
		}
	}
	if worst > 0.1 {
		t.Fatalf("sampled vs continuum potential relative deviation %.3f, want < 0.1", worst)
	}
}

// TestKernelsMatchReference verifies that all three simulated-GPU kernels
// reproduce the sequential reference potentials within tolerance — the
// paper's correctness claim that prediction never compromises accuracy.
func TestKernelsMatchReference(t *testing.T) {
	mk := func(algo func(*gpusim.Device) kernels.Algorithm) *Simulation {
		cfg := testConfig()
		cfg.Continuum = true
		s := New(cfg)
		if algo != nil {
			s.Algo = algo(gpusim.New(gpusim.KeplerK40()))
		}
		return s
	}
	ref := mk(nil)
	steps := ref.Cfg.Kappa + 4
	ref.Run(steps)
	if ref.Potential == nil {
		t.Fatal("reference produced no potential")
	}
	scale := ref.Potential.MaxAbs(0)

	algos := map[string]func(*gpusim.Device) kernels.Algorithm{
		"twophase":   func(d *gpusim.Device) kernels.Algorithm { return kernels.NewTwoPhase(d) },
		"heuristic":  func(d *gpusim.Device) kernels.Algorithm { return kernels.NewHeuristic(d) },
		"predictive": func(d *gpusim.Device) kernels.Algorithm { return kernels.NewPredictive(d) },
	}
	for name, algo := range algos {
		t.Run(name, func(t *testing.T) {
			s := mk(algo)
			s.Run(steps)
			if s.Potential == nil {
				t.Fatal("no potential")
			}
			var worst float64
			for i := range ref.Potential.Data {
				d := math.Abs(ref.Potential.Data[i]-s.Potential.Data[i]) / scale
				if d > worst {
					worst = d
				}
			}
			if worst > 0.02 {
				t.Fatalf("kernel deviates from reference by %.4f (relative), want < 0.02", worst)
			}
			if s.Last == nil {
				t.Fatal("kernel step result missing")
			}
			if s.Last.Metrics.Flops == 0 {
				t.Fatal("kernel recorded no flops")
			}
			wee := s.Last.Metrics.WarpExecutionEfficiency()
			if wee <= 0 || wee > 1 {
				t.Fatalf("warp execution efficiency %.3f out of (0,1]", wee)
			}
		})
	}
}

func TestDynamicModeRespondsToForces(t *testing.T) {
	// Non-rigid mode: the bunch must respond to its self-forces. With a
	// large artificial force scale the RMS sizes must change measurably,
	// while remaining finite (no blow-up within a few steps).
	cfg := testConfig()
	cfg.Rigid = false
	cfg.ForceScale = 1e25 // exaggerate the model-unit forces to see motion
	s := New(cfg)
	s.Warmup()
	before := s.Ensemble.Stats()
	for i := 0; i < 3; i++ {
		s.Advance()
	}
	after := s.Ensemble.Stats()
	if math.IsNaN(after.SigmaX) || math.IsNaN(after.SigmaY) {
		t.Fatal("dynamic run produced NaN beam sizes")
	}
	if after.SigmaX == before.SigmaX && after.SigmaY == before.SigmaY {
		t.Fatal("self-forces had no effect in dynamic mode")
	}
}

func TestWarmupFillsHistory(t *testing.T) {
	s := New(testConfig())
	s.Warmup()
	if s.Hist.Len() < s.Cfg.Kappa+3 {
		t.Fatalf("history %d after warmup, want >= kappa+3 = %d", s.Hist.Len(), s.Cfg.Kappa+3)
	}
}

func TestForceAtBeforePotentials(t *testing.T) {
	s := New(testConfig())
	f := s.ForceAt(0, 0)
	if f.AX != 0 || f.AY != 0 {
		t.Fatal("ForceAt before potentials must be zero")
	}
}

func TestCoMovingGridTracksBunch(t *testing.T) {
	cfg := testConfig()
	cfg.Continuum = true
	s := New(cfg)
	s.Run(4)
	g := s.Hist.At(s.Hist.Latest())
	cx, cy := s.Center()
	x0, y0, x1, y1 := g.Bounds()
	// The most recent grid must be centred on the (pre-push) bunch centre
	// to within one step's travel.
	travel := cfg.Beam.Beta() * phys.C * s.Cfg.Dt
	gx, gy := 0.5*(x0+x1), 0.5*(y0+y1)
	if math.Abs(gx-cx) > 1e-12 || math.Abs(gy-cy) > travel+1e-12 {
		t.Fatalf("grid centre (%g, %g) far from bunch centre (%g, %g)", gx, gy, cx, cy)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []float64 {
		s := New(testConfig())
		s.Warmup()
		s.Advance()
		out := make([]float64, len(s.Potential.Data))
		copy(out, s.Potential.Data)
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at %d", i)
		}
	}
}

func TestNonGaussianShapesProduceCorrectPotentials(t *testing.T) {
	// Robustness: the predictive kernel must match the host reference for
	// bunch profiles with sharp fronts and bimodal density, whose access
	// patterns differ structurally from the Gaussian default.
	for _, shape := range []particles.Shape{particles.FlatTopShape, particles.DoubleGaussianShape} {
		cfg := testConfig()
		cfg.Shape = shape
		cfg.Beam.NumParticles = 40000
		ref := New(cfg)
		ref.Warmup()
		ref.Advance()
		scale := ref.Potential.MaxAbs(0)
		if scale <= 0 {
			t.Fatalf("%v: zero reference potential", shape)
		}

		sim := New(cfg)
		sim.Algo = kernels.NewPredictive(gpusim.New(gpusim.KeplerK40()))
		sim.Warmup()
		sim.Advance()
		var worst float64
		for i := range ref.Potential.Data {
			if d := math.Abs(ref.Potential.Data[i]-sim.Potential.Data[i]) / scale; d > worst {
				worst = d
			}
		}
		if worst > 0.02 {
			t.Errorf("%v: kernel deviates by %g", shape, worst)
		}
	}
}

func TestContinuumRejectsNonGaussianShape(t *testing.T) {
	cfg := testConfig()
	cfg.Continuum = true
	cfg.Shape = particles.FlatTopShape
	defer func() {
		if recover() == nil {
			t.Fatal("continuum with non-Gaussian shape did not panic")
		}
	}()
	New(cfg)
}

package kernels

import (
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/retard"
)

// TestStepSteadyStateAllocs pins the kernels' reusable step storage: once
// warm, a whole Step allocates a small constant number of objects — the
// fresh StepResult with its point, partition and pattern slabs, plus the
// host pool's closures — instead of several per point, lane and interval.
// The count must not grow with the grid: at 48x48 a step may allocate at
// most 8 objects more than at 24x24.
func TestStepSteadyStateAllocs(t *testing.T) {
	const budget, growth = 256, 8
	for name, mk := range map[string]func() Algorithm{
		"twophase":   func() Algorithm { return NewTwoPhase(gpusim.New(gpusim.KeplerK40())) },
		"heuristic":  func() Algorithm { return NewHeuristic(gpusim.New(gpusim.KeplerK40())) },
		"predictive": func() Algorithm { return NewPredictive(gpusim.New(gpusim.KeplerK40())) },
	} {
		t.Run(name, func(t *testing.T) {
			var counts [2]float64
			for k, nx := range []int{24, 48} {
				p, target := fixture(8, nx)
				algo := mk()
				for s := 0; s < 3; s++ { // warm the model and every buffer
					algo.Step(p, target.Clone(), 0)
				}
				g := target.Clone()
				counts[k] = testing.AllocsPerRun(3, func() { algo.Step(p, g, 0) })
				if counts[k] > budget {
					t.Errorf("%dx%d: %.0f allocations per warm step, budget %d", nx, nx, counts[k], budget)
				}
			}
			t.Logf("%.0f allocations per warm step at 24x24, %.0f at 48x48", counts[0], counts[1])
			if counts[1]-counts[0] > growth {
				t.Errorf("allocations grow with the grid: %.0f at 24x24, %.0f at 48x48 (at most +%d)",
					counts[0], counts[1], growth)
			}
		})
	}
}

// TestEvaluatorPoolSizedToDevice checks the persistent per-SM pool: one
// evaluator slot per SM however many blocks the launches spawn, the same
// evaluators on the next step, and those evaluators reset to that step's
// problem.
func TestEvaluatorPoolSizedToDevice(t *testing.T) {
	dev := gpusim.New(gpusim.KeplerK40())
	p, target := fixture(8, 16)
	algo := NewTwoPhase(dev)
	algo.Step(p, target.Clone(), 0)
	pool := &algo.store.pool
	if len(pool.evals) != dev.Config().NumSMs {
		t.Fatalf("pool holds %d evaluator slots, device has %d SMs", len(pool.evals), dev.Config().NumSMs)
	}
	first := append([]*retard.Evaluator(nil), pool.evals...)
	built := 0
	for _, e := range first {
		if e != nil {
			built++
		}
	}
	if built == 0 {
		t.Fatal("no SM built an evaluator")
	}
	p2, _ := fixture(9, 16)
	algo.Step(p2, target.Clone(), 0)
	if pool.p != p2 {
		t.Fatal("pool not reset to the second step's problem")
	}
	for sm, e := range first {
		if e != nil && pool.evals[sm] != e {
			t.Fatalf("SM %d: evaluator replaced between steps", sm)
		}
	}
}

package kernels

import (
	"fmt"
	"runtime"
	"testing"

	"beamdyn/internal/gpusim"
)

// hostParVariants returns fresh kernel constructors for every host-
// parallel kernel configuration (each call builds an independent kernel
// on an independent device, so runs cannot share state).
func hostParVariants() map[string]func() Algorithm {
	return map[string]func() Algorithm{
		"twophase":  func() Algorithm { return NewTwoPhase(gpusim.New(gpusim.KeplerK40())) },
		"heuristic": func() Algorithm { return NewHeuristic(gpusim.New(gpusim.KeplerK40())) },
		"predictive-uniform": func() Algorithm {
			return NewPredictive(gpusim.New(gpusim.KeplerK40()))
		},
		"predictive-adaptive": func() Algorithm {
			pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
			pr.Mode = AdaptivePartition
			return pr
		},
	}
}

// stepRecord is everything observable from one kernel step that the
// determinism guarantee covers.
type stepRecord struct {
	data       []float64
	i, err     []float64
	partitions [][]float64
	patterns   [][]float64
}

func recordSteps(t *testing.T, mk func() Algorithm, workers, steps int) []stepRecord {
	t.Helper()
	p, target := fixture(8, 24)
	algo := mk()
	algo.(HostParallel).SetHostWorkers(workers)
	out := make([]stepRecord, 0, steps)
	for s := 0; s < steps; s++ {
		g := target.Clone()
		res := algo.Step(p, g, 0)
		rec := stepRecord{data: append([]float64(nil), g.Data...)}
		for _, pt := range res.Points {
			rec.i = append(rec.i, pt.I)
			rec.err = append(rec.err, pt.Err)
			rec.partitions = append(rec.partitions, append([]float64(nil), pt.Partition...))
			rec.patterns = append(rec.patterns, append([]float64(nil), pt.Pattern...))
		}
		out = append(out, rec)
	}
	return out
}

func sliceEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Every kernel must produce bitwise-identical results for any host worker
// count: the pool partitions index ranges statically and all parallel
// phases write by index, so concurrency must never leak into the output.
func TestHostWorkersDeterministic(t *testing.T) {
	const steps = 3
	counts := []int{2, 3, runtime.GOMAXPROCS(0)}
	for name, mk := range hostParVariants() {
		t.Run(name, func(t *testing.T) {
			ref := recordSteps(t, mk, 1, steps)
			for _, w := range counts {
				got := recordSteps(t, mk, w, steps)
				for s := range ref {
					r, g := ref[s], got[s]
					if !sliceEqual(r.data, g.data) {
						t.Fatalf("workers=%d step %d: grid data differs", w, s)
					}
					if !sliceEqual(r.i, g.i) || !sliceEqual(r.err, g.err) {
						t.Fatalf("workers=%d step %d: point integrals differ", w, s)
					}
					for i := range r.partitions {
						if !sliceEqual(r.partitions[i], g.partitions[i]) {
							t.Fatalf("workers=%d step %d: partition of point %d differs", w, s, i)
						}
						if !sliceEqual(r.patterns[i], g.patterns[i]) {
							t.Fatalf("workers=%d step %d: pattern of point %d differs", w, s, i)
						}
					}
				}
			}
		})
	}
}

// A hand-constructed Predictive (no constructor, nil Pred) must run with
// the paper's default model instead of panicking at ONLINE-LEARNING.
func TestPredictiveNilPredDefaults(t *testing.T) {
	p, target := fixture(8, 24)
	pr := &Predictive{Dev: gpusim.New(gpusim.KeplerK40())}
	res := pr.Step(p, target.Clone(), 0)
	if res == nil || len(res.Points) == 0 {
		t.Fatal("step produced no result")
	}
	if pr.Pred == nil || !pr.Pred.Trained() {
		t.Fatal("nil Pred was not replaced by a trained default model")
	}
	if _, ok := pr.Pred.(KNNPredictor); !ok {
		t.Fatalf("default model is %T, want KNNPredictor", pr.Pred)
	}
	// The defaulted kernel must keep converging on later steps.
	res2 := pr.Step(p, target.Clone(), 0)
	if res2.FallbackEntries > res.FallbackEntries {
		t.Fatalf("trained step regressed fallback: %d -> %d",
			res.FallbackEntries, res2.FallbackEntries)
	}
}

// Steady-state Predictive host phases must be near-allocation-free: after
// the scratch warms up, predict/cluster/train reuse arenas and resized
// buffers, so per-step allocation counts stay a tiny constant instead of
// the seed's O(points) per phase.
func TestPredictiveSteadyStateHostAllocs(t *testing.T) {
	p, target := fixture(8, 24)
	pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	for s := 0; s < 3; s++ { // warm the model and every scratch buffer
		pr.Step(p, target.Clone(), 0)
	}
	g := target.Clone()
	points := pr.Step(p, g, 0).Points
	workers := pr.hostWorkers()
	patterns, parts, _ := pr.predictPhase(p, g, points, workers)
	phases := []struct {
		name string
		run  func()
	}{
		{"predict", func() { pr.predictPhase(p, g, points, workers) }},
		{"cluster", func() { pr.cluster(p, g, points, patterns, parts, workers) }},
		{"train", func() { pr.trainPhase(points, g, workers) }},
	}
	// The bound is a small constant budget (worker closures, WaitGroups,
	// map internals), far under one allocation per point.
	const budget = 64
	for _, ph := range phases {
		if allocs := testing.AllocsPerRun(5, ph.run); allocs > budget {
			t.Errorf("steady-state %s phase: %.0f allocs for %d points", ph.name, allocs, len(points))
		}
	}
}

// BenchmarkPredictiveHostPhases tracks the three host phases separately
// (ns/step; -benchmem adds allocations per step) per worker count; `make
// bench-host` runs it.
func BenchmarkPredictiveHostPhases(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			p, target := fixture(8, 32)
			pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
			pr.SetHostWorkers(w)
			for s := 0; s < 2; s++ {
				pr.Step(p, target.Clone(), 0)
			}
			var predict, cluster, train float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := pr.Step(p, target.Clone(), 0)
				predict += res.Host.Predict
				cluster += res.Host.Clustering
				train += res.Host.Train
			}
			inv := 1e9 / float64(b.N)
			b.ReportMetric(predict*inv, "predict-ns/step")
			b.ReportMetric(cluster*inv, "cluster-ns/step")
			b.ReportMetric(train*inv, "train-ns/step")
		})
	}
}

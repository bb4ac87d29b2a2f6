package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"beamdyn/internal/core"
)

// small is a workload of the given kernel small enough for a unit test.
func small(kernel string, rigid bool) workload {
	return workload{Name: "small-" + kernel, Kernel: kernel, Grid: 24, N: 4000, Rigid: rigid}
}

// The seams — the Algorithm wrapper, the GridSolver adapter, the launch
// Recorder and the particle-stage re-runs — must leave every output
// bitwise identical to an unwrapped Advance, and every child layer's time
// must fit inside its parent's.
func TestSeamsLeaveAdvanceUnchanged(t *testing.T) {
	for _, w := range []workload{
		small("predictive", true), small("twophase", true), small("heuristic", true),
		small("reference", true), small("reference", false),
	} {
		t.Run(w.Name+map[bool]string{true: "-rigid", false: "-dynamic"}[w.Rigid], func(t *testing.T) {
			plain, _ := setUp(w, 7, nil)
			tr := &tracer{}
			seamed, _ := setUp(w, 7, tr)
			if w.Kernel != "reference" && tr.setupFallback == 0 {
				t.Error("the wrapper saw no safety-net entries during set-up")
			}
			var layers particleLayers
			chk := newChecker()
			for step := 0; step < 4; step++ {
				plain.Advance()
				layers.snapshot(seamed)
				tr.advance(seamed, true)
				st := tr.cur
				if !layers.replay(seamed, &st) {
					t.Fatalf("step %d: a particle-stage re-run differs from Advance", step)
				}
				if !chk.check(seamed) {
					t.Fatalf("step %d: output check failed", step)
				}
				assertSameStep(t, step, plain, seamed)
				assertNested(t, step, w, &st)
			}
		})
	}
}

func assertSameStep(t *testing.T, step int, plain, seamed *core.Simulation) {
	t.Helper()
	if !sameBits(plain.Potential.Data, seamed.Potential.Data) {
		t.Fatalf("step %d: potentials differ", step)
	}
	if !slices.Equal(plain.Forces, seamed.Forces) || !slices.Equal(plain.Ensemble.P, seamed.Ensemble.P) {
		t.Fatalf("step %d: forces or particles differ", step)
	}
	if plain.Last != nil && plain.Last.Metrics != seamed.Last.Metrics {
		t.Fatalf("step %d: Metrics differ:\n%+v\n%+v", step, plain.Last.Metrics, seamed.Last.Metrics)
	}
}

func assertNested(t *testing.T, step int, w workload, st *stepTrace) {
	t.Helper()
	if st.Potentials <= 0 || st.Potentials > st.Advance {
		t.Fatalf("step %d: potentials %v outside advance %v", step, st.Potentials, st.Advance)
	}
	if w.Kernel == "reference" {
		if len(st.Launches) != 0 || st.Solve.TileW == 0 {
			t.Fatalf("step %d: reference step saw %d launches, solve stats %+v", step, len(st.Launches), st.Solve)
		}
		return
	}
	var launches time.Duration
	for _, l := range st.Launches {
		if l.Wall < 0 {
			t.Fatalf("step %d: launch %s has negative wall time", step, l.Name)
		}
		launches += l.Wall
	}
	host := seconds(st.Host.Predict + st.Host.Clustering + st.Host.Train)
	if len(st.Launches) == 0 || launches+host > st.Potentials {
		t.Fatalf("step %d: %d launches (%v) + host phases (%v) exceed the kernel step %v",
			step, len(st.Launches), launches, host, st.Potentials)
	}
}

// BENCHMARK.json must list exactly the metrics each mode prints, with the
// same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		if _, err := findWorkload(sw.Name); err != nil {
			t.Error(err)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	e2e := endToEnd([]float64{1, 2}, []float64{1}, 1)
	layer := perLayer(workloads[0], []stepTrace{{Advance: 1}}, []float64{1}, 0, newChecker())
	for name, c := range map[string]struct {
		want []struct{ Name, Unit string }
		got  map[string]value
	}{"end_to_end": {spec.EndToEnd, e2e}, "per_layer": {spec.PerLayer, layer}} {
		if len(c.want) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", name, len(c.want), len(c.got))
		}
		for _, m := range c.want {
			if v, ok := c.got[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: %s [%s] is printed as %+v", name, m.Name, m.Unit, v)
			}
		}
	}
}

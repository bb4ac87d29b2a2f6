package kernels

import (
	"strings"
	"testing"

	"beamdyn/internal/gpusim"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/flight"
)

func observedNames(sink *flight.Recorder) map[string]int {
	names := map[string]int{}
	for _, e := range sink.Events() {
		names[e.Name]++
	}
	return names
}

// predictorSeries lists the predictor_* series in o's registry.
func predictorSeries(o *obs.Observer) []string {
	snap := o.Reg.Snapshot()
	var out []string
	add := func(name string) {
		if strings.HasPrefix(name, "predictor_") {
			out = append(out, name)
		}
	}
	for _, c := range snap.Counters {
		add(c.Name)
	}
	for _, g := range snap.Gauges {
		add(g.Name)
	}
	for _, h := range snap.Histograms {
		add(h.Name)
	}
	return out
}

// TestPredictiveEmitsSubPhaseSpansAndSample: with an observer attached,
// Predictive-RP emits its sub-phase spans on every step and hands the
// forecast step's sample data (Forecast, per-point ForecastErr, fallback
// entries) to its caller in the step result. Recording the sample is the
// caller's (core.Advance), so the kernel emits no "predictor" event and
// registers no predictor series.
func TestPredictiveEmitsSubPhaseSpansAndSample(t *testing.T) {
	p, target := fixture(8, 24)
	pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	o := obs.New()
	sink := flight.New(0, nil)
	o.Trace = obs.NewTracer(sink)
	pr.SetObserver(o)

	r0 := pr.Step(p, target.Clone(), 0) // bootstrap
	r1 := pr.Step(p, target.Clone(), 0) // trained

	names := observedNames(sink)
	for _, want := range []string{
		"predictive/predict", "predictive/cluster", "predictive/verify",
		"predictive/fallback", "predictive/train",
	} {
		if names[want] != 2 {
			t.Fatalf("span %q seen %d times, want 2 (names: %v)", want, names[want], names)
		}
	}
	if names["predictor"] != 0 {
		t.Fatalf("kernel emitted %d predictor events, want 0", names["predictor"])
	}
	if series := predictorSeries(o); len(series) != 0 {
		t.Fatalf("kernel registered predictor series %v", series)
	}

	if r0.Forecast || r0.ForecastErr != nil {
		t.Fatalf("bootstrap step: forecast %v with %d errors, want none", r0.Forecast, len(r0.ForecastErr))
	}
	if !r1.Forecast || len(r1.ForecastErr) != 24*24 || len(r1.Points) != 24*24 {
		t.Fatalf("trained step: forecast %v with %d errors over %d points, want %d",
			r1.Forecast, len(r1.ForecastErr), len(r1.Points), 24*24)
	}
	for i, e := range r1.ForecastErr {
		if !(e >= 0) {
			t.Fatalf("forecast error %d = %g, want finite and non-negative", i, e)
		}
	}
	if r1.FallbackEntries < 0 || r1.FallbackEntries > len(r1.Points)*p.NumSub() {
		t.Fatalf("fallback entries %d out of range", r1.FallbackEntries)
	}

	// Without an observer the errors are not computed at all.
	bare := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	bare.Step(p, target.Clone(), 0)
	if r := bare.Step(p, target.Clone(), 0); !r.Forecast || r.ForecastErr != nil {
		t.Fatalf("unobserved trained step: forecast %v with %d errors, want forecast and none",
			r.Forecast, len(r.ForecastErr))
	}
}

// TestHeuristicAndTwoPhaseRecordSamples: Heuristic-RP's step result is a
// forecast step's once it reuses patterns of the step's length, with one
// forecast error per point; Two-Phase-RP, which has no forecast, never
// is. Neither kernel registers a predictor series itself.
func TestHeuristicAndTwoPhaseRecordSamples(t *testing.T) {
	p, target := fixture(8, 24)
	o := obs.New()

	h := NewHeuristic(gpusim.New(gpusim.KeplerK40()))
	h.SetObserver(o)
	r0 := h.Step(p, target.Clone(), 0)
	r1 := h.Step(p, target.Clone(), 0)
	if r0.Forecast || r0.ForecastErr != nil || !r1.Forecast || len(r1.ForecastErr) != 24*24 {
		t.Fatalf("heuristic step results: forecast %v/%v with %d/%d errors",
			r0.Forecast, r1.Forecast, len(r0.ForecastErr), len(r1.ForecastErr))
	}

	tp := NewTwoPhase(gpusim.New(gpusim.KeplerK40()))
	tp.SetObserver(o)
	res := tp.Step(p, target.Clone(), 0)
	if res.FallbackEntries == 0 || res.Forecast || res.ForecastErr != nil {
		t.Fatalf("twophase step: %d fallback entries, forecast %v with %d errors; want refinement and no forecast",
			res.FallbackEntries, res.Forecast, len(res.ForecastErr))
	}
	if series := predictorSeries(o); len(series) != 0 {
		t.Fatalf("kernels registered predictor series %v", series)
	}
}

func TestKernelsMatchReferenceWithObserverAttached(t *testing.T) {
	// Instrumentation must not perturb results: same potentials with and
	// without the observer.
	p, target := fixture(8, 24)
	plain := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	traced := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	o := obs.New()
	sink := flight.New(0, nil)
	o.Trace = obs.NewTracer(sink)
	traced.SetObserver(o)
	for step := 0; step < 2; step++ {
		a := target.Clone()
		b := target.Clone()
		plain.Step(p, a, 0)
		traced.Step(p, b, 0)
		for i := range a.Data {
			if a.Data[i] != b.Data[i] {
				t.Fatalf("step %d: observer changed potentials at %d", step, i)
			}
		}
	}
}

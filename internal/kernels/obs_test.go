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

func TestPredictiveEmitsSubPhaseSpansAndSample(t *testing.T) {
	p, target := fixture(8, 24)
	pr := NewPredictive(gpusim.New(gpusim.KeplerK40()))
	o := obs.New()
	sink := flight.New(0, nil)
	o.Trace = obs.NewTracer(sink)
	pr.SetObserver(o)

	pr.Step(p, target.Clone(), 0) // bootstrap
	pr.Step(p, target.Clone(), 0) // trained

	names := observedNames(sink)
	for _, want := range []string{
		"predictive/predict", "predictive/cluster", "predictive/verify",
		"predictive/fallback", "predictive/train", "predictor",
	} {
		if names[want] != 2 {
			t.Fatalf("span %q seen %d times, want 2 (names: %v)", want, names[want], names)
		}
	}

	samples := o.Pred.Samples()
	if len(samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(samples))
	}
	if samples[0].Trained {
		t.Fatal("bootstrap step marked trained")
	}
	if !samples[1].Trained {
		t.Fatal("second step not marked trained")
	}
	if samples[1].Points != 24*24 {
		t.Fatalf("points = %d", samples[1].Points)
	}
	for i, s := range samples {
		if s.ErrMax < s.ErrP90 || s.ErrP90 < s.ErrP50 {
			t.Fatalf("sample %d quantiles out of order: %+v", i, s)
		}
		var n uint64
		for _, b := range s.ErrBuckets {
			n += b
		}
		if n != uint64(s.Points) {
			t.Fatalf("sample %d buckets cover %d of %d points", i, n, s.Points)
		}
		if s.FallbackRate < 0 || s.FallbackRate > 1 {
			t.Fatalf("sample %d fallback rate %g out of range", i, s.FallbackRate)
		}
	}
	// Registry mirrors the series.
	kl := obs.Label{Key: "kernel", Value: "Predictive-RP"}
	if o.Reg.Counter("predictor_steps_total", kl).Value() != 2 {
		t.Fatal("predictor_steps_total not recorded")
	}
	if o.Reg.Histogram("predictor_forecast_error", obs.DefaultErrBounds, kl).Count() != 2*24*24 {
		t.Fatal("forecast error histogram incomplete")
	}
}

// TestHeuristicAndTwoPhaseRecordSamples: Heuristic-RP records a sample
// per step, trained once it reuses patterns of the step's length, and its
// step result says the same; Two-Phase-RP, which has no forecast, records
// no sample and registers no predictor series.
func TestHeuristicAndTwoPhaseRecordSamples(t *testing.T) {
	p, target := fixture(8, 24)
	o := obs.New()

	h := NewHeuristic(gpusim.New(gpusim.KeplerK40()))
	h.SetObserver(o)
	r0 := h.Step(p, target.Clone(), 0)
	r1 := h.Step(p, target.Clone(), 0)
	hs := o.Pred.Samples()
	if len(hs) != 2 || hs[0].Trained || !hs[1].Trained {
		t.Fatalf("heuristic samples wrong: %+v", hs)
	}
	if r0.Forecast || r0.ForecastErr != nil || !r1.Forecast || len(r1.ForecastErr) != 24*24 {
		t.Fatalf("heuristic step results: forecast %v/%v with %d/%d errors",
			r0.Forecast, r1.Forecast, len(r0.ForecastErr), len(r1.ForecastErr))
	}
	if hs[1].ErrMean <= 0 && hs[1].ErrMax <= 0 {
		t.Log("persistence forecast exact on static problem (acceptable)")
	}

	o = obs.New()
	tp := NewTwoPhase(gpusim.New(gpusim.KeplerK40()))
	tp.SetObserver(o)
	res := tp.Step(p, target.Clone(), 0)
	if res.FallbackEntries == 0 || res.Forecast {
		t.Fatalf("twophase step: %d fallback entries, forecast %v; want refinement and no forecast",
			res.FallbackEntries, res.Forecast)
	}
	if s, ok := o.Pred.Last(); ok {
		t.Fatalf("twophase recorded a predictor sample: %+v", s)
	}
	snap := o.Reg.Snapshot()
	var names []string
	for _, c := range snap.Counters {
		names = append(names, c.Name)
	}
	for _, g := range snap.Gauges {
		names = append(names, g.Name)
	}
	for _, hs := range snap.Histograms {
		names = append(names, hs.Name)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "predictor_") {
			t.Fatalf("twophase registered the %s series", n)
		}
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

package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// predictorHistogram returns the snapshot of the predictor_forecast_error
// series labelled kernel.
func predictorHistogram(t *testing.T, o *Observer, kernel string) HistogramSnapshot {
	t.Helper()
	for _, h := range o.Reg.Snapshot().Histograms {
		if h.Name == "predictor_forecast_error" && h.Labels["kernel"] == kernel {
			return h
		}
	}
	t.Fatalf("no predictor_forecast_error{kernel=%q} series", kernel)
	return HistogramSnapshot{}
}

func TestRecordPredictorFillsSampleAndSeries(t *testing.T) {
	o := New()
	sink := &memSink{}
	o.Trace = NewTracer(sink)

	errs := []float64{3, 0.1, 1.5, 0.2, 40}
	s := StepSample{
		Step: 7, Kernel: "Predictive-RP",
		FallbackEntries: 25, FallbackRate: 0.25, TrainSec: 0.5,
	}
	var p50 float64
	s.ErrMean, p50, s.ErrP90, s.ErrMax = SummarizeErrors(errs)
	if want := (3 + 0.1 + 1.5 + 0.2 + 40) / 5; math.Abs(s.ErrMean-want) > 1e-12 {
		t.Fatalf("err mean = %g, want %g", s.ErrMean, want)
	}
	if s.ErrMax != 40 || p50 != 1.5 || s.ErrP90 != 3 {
		t.Fatalf("err max/p50/p90 = %g/%g/%g, want 40/1.5/3", s.ErrMax, p50, s.ErrP90)
	}
	o.RecordPredictor(s, errs)

	// Registry series carry the sample.
	kl := Label{"kernel", "Predictive-RP"}
	if v := o.Reg.Gauge("predictor_fallback_rate", kl).Value(); v != 0.25 {
		t.Fatalf("registry fallback rate = %g", v)
	}
	if v := o.Reg.Counter("predictor_fallback_entries_total", kl).Value(); v != 25 {
		t.Fatalf("registry fallback entries = %d", v)
	}
	if v := o.Reg.Counter("predictor_steps_total", kl).Value(); v != 1 {
		t.Fatalf("registry steps = %d", v)
	}
	if v := o.Reg.Gauge("predictor_train_seconds_total", kl).Value(); v != 0.5 {
		t.Fatalf("registry train seconds = %g", v)
	}
	// Bounds {0.25, 0.5, 1, 2, 4, 8, 16, 32}: 0.1,0.2 <= 0.25; 1.5 <= 2;
	// 3 <= 4; 40 overflows.
	h := predictorHistogram(t, o, "Predictive-RP")
	want := []uint64{2, 0, 0, 1, 1, 0, 0, 0, 1}
	if h.Count != 5 || len(h.Buckets) != len(want) {
		t.Fatalf("forecast error histogram: count %d, buckets %+v", h.Count, h.Buckets)
	}
	for i := range want {
		if h.Buckets[i].Count != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, h.Buckets[i].Count, want[i], h.Buckets)
		}
	}

	// One trace event (after the t0 header) carries the summary.
	evs := sink.Events()
	if len(evs) != 2 || evs[1].Name != "predictor" || evs[1].Step != 7 {
		t.Fatalf("trace events: %+v", evs)
	}
	a := evs[1].Attrs
	if a["kernel"] != "Predictive-RP" || a["fallback_rate"] != 0.25 || a["err_max"] != 40.0 || a["train_sec"] != 0.5 {
		t.Fatalf("predictor event attrs: %v", a)
	}
}

func TestRecordPredictorWithoutErrors(t *testing.T) {
	o := New()
	o.RecordPredictor(StepSample{Step: 1, Kernel: "Heuristic-RP", FallbackEntries: 5, FallbackRate: 0.5}, nil)
	kl := Label{"kernel", "Heuristic-RP"}
	if v := o.Reg.Gauge("predictor_fallback_rate", kl).Value(); v != 0.5 {
		t.Fatalf("registry fallback rate = %g", v)
	}
	if h := predictorHistogram(t, o, "Heuristic-RP"); h.Count != 0 {
		t.Fatalf("forecast error histogram holds %d observations, want 0", h.Count)
	}
}

// TestQuantileAndBucketizeEdges: the summary's nearest-rank quantile on
// empty and single-value inputs, and the forecast-error histogram's bucket
// edges (a value equal to a bound falls in that bound's bucket).
func TestQuantileAndBucketizeEdges(t *testing.T) {
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	if quantile([]float64{7}, 0.9) != 7 {
		t.Fatal("single-value quantile")
	}
	if m, p50, p90, mx := SummarizeErrors(nil); m != 0 || p50 != 0 || p90 != 0 || mx != 0 {
		t.Fatalf("empty summary = %g/%g/%g/%g", m, p50, p90, mx)
	}
	h := NewRegistry().Histogram("h", []float64{1})
	for _, v := range []float64{0.5, 1, 2} {
		h.Observe(v)
	}
	if b0, b1 := h.buckets[0].Load(), h.buckets[1].Load(); b0 != 2 || b1 != 1 {
		t.Fatalf("buckets = %d, %d; want 2, 1", b0, b1)
	}
}

func TestWriteSnapshotIncludesPredictorSeries(t *testing.T) {
	o := New()
	o.RecordPredictor(StepSample{Step: 1, Kernel: "k", FallbackEntries: 1, FallbackRate: 0.25}, []float64{1})
	var buf bytes.Buffer
	if err := o.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"metrics"`, `"predictor_fallback_rate"`, `"value": 0.25`, `"predictor_forecast_error"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot missing %s:\n%s", want, out)
		}
	}
}

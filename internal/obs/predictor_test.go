package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestRecordPredictorFillsSampleAndSeries(t *testing.T) {
	o := New()
	sink := &memSink{}
	o.Trace = NewTracer(sink)

	errs := []float64{3, 0.1, 1.5, 0.2, 40}
	o.RecordPredictor(StepSample{
		Step: 7, Kernel: "Predictive-RP", Trained: true,
		Points: 100, FallbackEntries: 25, TrainSec: 0.5,
	}, errs)

	s, ok := o.Pred.Last()
	if !ok {
		t.Fatal("no sample recorded")
	}
	if s.FallbackRate != 0.25 {
		t.Fatalf("fallback rate = %g, want 0.25", s.FallbackRate)
	}
	if want := (3 + 0.1 + 1.5 + 0.2 + 40) / 5; math.Abs(s.ErrMean-want) > 1e-12 {
		t.Fatalf("err mean = %g, want %g", s.ErrMean, want)
	}
	if s.ErrMax != 40 {
		t.Fatalf("err max = %g", s.ErrMax)
	}
	if s.ErrP50 != 1.5 {
		t.Fatalf("err p50 = %g", s.ErrP50)
	}
	// Bounds {0.25, 0.5, 1, 2, 4, 8, 16, 32}: 0.1,0.2 <= 0.25; 1.5 <= 2;
	// 3 <= 4; 40 overflows.
	want := []uint64{2, 0, 0, 1, 1, 0, 0, 0, 1}
	if len(s.ErrBuckets) != len(want) {
		t.Fatalf("buckets = %v", s.ErrBuckets)
	}
	for i := range want {
		if s.ErrBuckets[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.ErrBuckets[i], want[i], s.ErrBuckets)
		}
	}

	// Registry series mirror the sample.
	kl := Label{"kernel", "Predictive-RP"}
	if v := o.Reg.Gauge("predictor_fallback_rate", kl).Value(); v != 0.25 {
		t.Fatalf("registry fallback rate = %g", v)
	}
	if v := o.Reg.Counter("predictor_fallback_entries_total", kl).Value(); v != 25 {
		t.Fatalf("registry fallback entries = %d", v)
	}
	if n := o.Reg.Histogram("predictor_forecast_error", DefaultErrBounds, kl).Count(); n != 5 {
		t.Fatalf("registry forecast error count = %d", n)
	}

	// Trace event emitted (after the t0 header).
	evs := sink.Events()
	if len(evs) != 2 || evs[1].Name != "predictor" || evs[1].Step != 7 {
		t.Fatalf("trace events: %+v", evs)
	}
	evs = evs[1:]
	if evs[0].Attrs["trained"] != true {
		t.Fatalf("trained attr: %v", evs[0].Attrs)
	}
}

func TestPredictorMonitorEvictsOldest(t *testing.T) {
	m := NewPredictorMonitor(3)
	for i := 0; i < 5; i++ {
		m.Record(StepSample{Step: i})
	}
	s := m.Samples()
	if len(s) != 3 || s[0].Step != 2 || s[2].Step != 4 {
		t.Fatalf("retained samples: %+v", s)
	}
	if m.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", m.Dropped())
	}
}

func TestRecordPredictorWithoutErrors(t *testing.T) {
	o := New()
	o.RecordPredictor(StepSample{Step: 1, Kernel: "Two-Phase-RP", Points: 10, FallbackEntries: 5}, nil)
	s, _ := o.Pred.Last()
	if s.FallbackRate != 0.5 || s.ErrMean != 0 || s.ErrBuckets != nil {
		t.Fatalf("no-forecast sample wrong: %+v", s)
	}
}

func TestQuantileAndBucketizeEdges(t *testing.T) {
	if quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	if quantile([]float64{7}, 0.9) != 7 {
		t.Fatal("single-value quantile")
	}
	b := bucketize([]float64{0.5, 1, 2}, []float64{1})
	if b[0] != 2 || b[1] != 1 {
		t.Fatalf("bucketize = %v", b)
	}
}

func TestWriteSnapshotIncludesPredictorSeries(t *testing.T) {
	o := New()
	o.RecordPredictor(StepSample{Step: 1, Kernel: "k", Points: 4, FallbackEntries: 1}, []float64{1})
	var buf bytes.Buffer
	if err := o.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"predictor"`) || !strings.Contains(out, `"fallback_rate": 0.25`) {
		t.Fatalf("snapshot missing predictor series:\n%s", out)
	}
}

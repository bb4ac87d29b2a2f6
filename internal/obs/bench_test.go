package obs

import "testing"

// The disabled path must stay at a few nanoseconds per call site: a
// simulation step makes ~15 telemetry calls, so even a microsecond-scale
// step pays well under 0.1% when observability is off. The step-level
// overhead check (BenchmarkObsOverhead, make bench-obs) lives in
// internal/core, the kernel step with the observer off and on
// (BenchmarkObsDisabled vs BenchmarkObsEnabled) in internal/kernels.

func BenchmarkSpanDisabled(b *testing.B) {
	var o *Observer
	for i := 0; i < b.N; i++ {
		o.Span("stage", i).End()
	}
}

func BenchmarkSpanRegistryOnly(b *testing.B) {
	o := &Observer{Reg: NewRegistry()}
	for i := 0; i < b.N; i++ {
		o.Span("stage", i).End()
	}
}

func BenchmarkSpanTraced(b *testing.B) {
	o := &Observer{Trace: NewTracer(discardSink{})}
	for i := 0; i < b.N; i++ {
		o.Span("stage", i).End()
	}
}

type discardSink struct{}

func (discardSink) Emit(Event) error { return nil }

func BenchmarkCounterAdd(b *testing.B) {
	c := NewRegistry().Counter("c")
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h", DefaultErrBounds)
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 40))
	}
}

// Package obs is the unified telemetry layer of the simulation: a
// lightweight, allocation-conscious metrics registry (counters, gauges,
// fixed-bucket histograms with labeled series), a span tracer emitting
// JSONL events to a pluggable sink, and a predictor-quality monitor that
// turns the Predictive-RP kernel's forecast accuracy, fallback rate and
// re-train cost into per-step time series.
//
// The paper diagnoses its contribution entirely through profiler counters
// (Tables I-II) and through the quality of the one-step-ahead access
// pattern forecast; this package makes both observable continuously over a
// run instead of as a single end-of-run printout, which is the
// precondition for trusting a surrogate-assisted simulation at scale.
//
// Everything is nil-safe: a nil *Observer (and nil *Registry, *Tracer,
// *PredictorMonitor, and every metric handle they return) turns all
// recording calls into cheap no-ops, so instrumented hot paths cost a
// pointer test when observability is disabled.
package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Observer bundles the three telemetry components. Any field may be nil to
// disable that component; a nil *Observer disables everything.
//
// An observer optionally carries a span context (see ScopedTracer): derived
// observers returned by StartTrace, WithBaggage and Span.Scope share the
// same Trace/Reg/Pred components but stamp every span and event they emit
// with trace/parent IDs and baggage attrs, so a job's whole causal tree is
// reconstructable from the JSONL stream. When tracing is disabled the
// derivation methods return the receiver unchanged — scoping costs nothing
// on the disabled path and never touches the physics.
type Observer struct {
	// Trace receives span and point events.
	Trace *Tracer
	// Reg accumulates metric series.
	Reg *Registry
	// Pred collects per-step predictor-quality samples.
	Pred *PredictorMonitor

	scope *ScopedTracer
}

// ScopedTracer is the span context a derived observer carries: the trace
// it belongs to, the span its children parent under, and baggage attrs
// (job, attempt, node, ...) stamped on every descendant event.
type ScopedTracer struct {
	TraceID  string
	ParentID string
	Baggage  []Attr
}

// Scope returns the observer's span context (nil when unscoped).
func (o *Observer) Scope() *ScopedTracer {
	if o == nil {
		return nil
	}
	return o.scope
}

// with returns a copy of o carrying sc; components are shared.
func (o *Observer) with(sc *ScopedTracer) *Observer {
	d := *o
	d.scope = sc
	return &d
}

// StartTrace returns a derived observer rooted in a fresh trace: spans it
// creates with no enclosing span become roots of that trace, and baggage
// is stamped on every descendant event. When tracing is disabled it
// returns o unchanged (zero cost, nothing to stamp).
func (o *Observer) StartTrace(baggage ...Attr) *Observer {
	if !o.TraceEnabled() {
		return o
	}
	sc := &ScopedTracer{TraceID: o.Trace.nextTraceID()}
	if len(baggage) > 0 {
		sc.Baggage = append([]Attr(nil), baggage...)
	}
	return o.with(sc)
}

// WithBaggage returns a derived observer whose events carry the extra
// baggage attrs on top of any inherited ones; trace and parent context are
// inherited. When tracing is disabled it returns o unchanged.
func (o *Observer) WithBaggage(attrs ...Attr) *Observer {
	if !o.TraceEnabled() || len(attrs) == 0 {
		return o
	}
	sc := &ScopedTracer{}
	if o.scope != nil {
		*sc = *o.scope
	}
	bag := make([]Attr, 0, len(sc.Baggage)+len(attrs))
	bag = append(bag, sc.Baggage...)
	bag = append(bag, attrs...)
	sc.Baggage = bag
	return o.with(sc)
}

// New returns an observer with a live registry and predictor monitor and
// no trace sink (attach one via Trace = NewTracer(sink)).
func New() *Observer {
	return &Observer{Reg: NewRegistry(), Pred: NewPredictorMonitor(0)}
}

// Enabled reports whether any component is live.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Trace.Enabled() || o.Reg != nil || o.Pred != nil)
}

// TraceEnabled reports whether span events reach a sink.
func (o *Observer) TraceEnabled() bool { return o != nil && o.Trace.Enabled() }

// PredictorEnabled reports whether predictor-quality samples are collected.
func (o *Observer) PredictorEnabled() bool {
	return o != nil && (o.Pred != nil || o.Reg != nil || o.Trace.Enabled())
}

// Span starts a span named name for simulation step. The returned Span
// must be Ended; on End the duration is emitted as a trace event and
// observed into the registry's "stage_seconds" histogram series (label
// stage=name). A disabled observer returns an inert span and does not
// read the clock.
func (o *Observer) Span(name string, step int) Span {
	if o == nil || (o.Trace == nil && o.Reg == nil) {
		return Span{}
	}
	s := Span{o: o, name: name, step: step, t0: time.Now()}
	if o.Trace.Enabled() {
		s.id = o.Trace.nextSpanID()
		if sc := o.scope; sc != nil {
			s.trace, s.parent = sc.TraceID, sc.ParentID
		} else {
			// Unscoped span: root of its own fresh trace.
			s.trace = o.Trace.nextTraceID()
		}
	}
	return s
}

// Event emits an instantaneous (zero-duration) trace event carrying the
// observer's span context and baggage.
func (o *Observer) Event(name string, step int, attrs ...Attr) {
	if !o.TraceEnabled() {
		return
	}
	var trace, parent string
	var baggage []Attr
	if sc := o.scope; sc != nil {
		trace, parent, baggage = sc.TraceID, sc.ParentID, sc.Baggage
	}
	o.Trace.emitCtx(name, "event", step, 0, trace, "", parent, baggage, attrs)
}

// Span is an in-flight traced operation. The zero Span is inert.
type Span struct {
	o      *Observer
	name   string
	step   int
	t0     time.Time
	trace  string
	id     string
	parent string
}

// IDs returns the span's trace and span IDs (empty when tracing is off).
func (s Span) IDs() (trace, span string) { return s.trace, s.id }

// Scope returns an observer whose spans and events become children of s,
// inheriting s's trace and the creating observer's baggage. With tracing
// disabled (or an inert span) it returns the creating observer unchanged,
// so callers can scope unconditionally.
func (s Span) Scope() *Observer {
	if s.o == nil || s.id == "" {
		return s.o
	}
	sc := &ScopedTracer{TraceID: s.trace, ParentID: s.id}
	if p := s.o.scope; p != nil {
		sc.Baggage = p.Baggage
	}
	return s.o.with(sc)
}

// End closes the span, recording its duration in the trace and the
// registry. Extra attributes are attached to the trace event. When the
// span has IDs, the stage_seconds series keeps it as an exemplar if it is
// the worst recent observation.
func (s Span) End(attrs ...Attr) {
	if s.o == nil {
		return
	}
	dur := time.Since(s.t0).Seconds()
	if s.o.Trace.Enabled() {
		var baggage []Attr
		if sc := s.o.scope; sc != nil {
			baggage = sc.Baggage
		}
		s.o.Trace.emitCtx(s.name, "span", s.step, dur, s.trace, s.id, s.parent, baggage, attrs)
	}
	if s.o.Reg != nil {
		h := s.o.Reg.Histogram("stage_seconds", StageSecondsBuckets, Label{"stage", s.name})
		if s.id != "" {
			h.ObserveExemplar(dur, s.trace, s.id)
		} else {
			h.Observe(dur)
		}
	}
}

// StageSecondsBuckets are the default duration buckets for stage spans:
// exponential from 10us to ~40s, the range simulation stages span from
// toy grids to the paper's full 1024x1024 runs.
var StageSecondsBuckets = ExpBuckets(1e-5, 4, 12)

// GPURecorder returns a bridge that mirrors every simulated-GPU launch's
// profiler counters into the registry (attach with Device.AttachRecorder).
// On a scoped observer the bridge carries the trace ID, so the worst
// recent gpu_launch_seconds observation keeps a trace exemplar.
func (o *Observer) GPURecorder() GPUBridge {
	if o == nil {
		return GPUBridge{}
	}
	b := GPUBridge{Reg: o.Reg}
	if o.scope != nil {
		b.Trace = o.scope.TraceID
	}
	return b
}

// RunSnapshot is the end-of-run document written by WriteSnapshot: the
// registry snapshot plus the full predictor-quality series.
type RunSnapshot struct {
	Metrics   Snapshot     `json:"metrics"`
	Predictor []StepSample `json:"predictor,omitempty"`
}

// WriteSnapshot writes the observer's state as indented JSON.
func (o *Observer) WriteSnapshot(w io.Writer) error {
	var rs RunSnapshot
	if o != nil {
		if o.Reg != nil {
			rs.Metrics = o.Reg.Snapshot()
		}
		if o.Pred != nil {
			rs.Predictor = o.Pred.Samples()
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rs)
}

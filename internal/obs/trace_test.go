package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestJSONLSinkEmitsValidLines(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	o := &Observer{Trace: NewTracer(sink)}

	sp := o.Span("advance/deposit", 3)
	time.Sleep(time.Millisecond)
	sp.End(F("dropped", 0), S("mode", "cic"))
	o.Event("predictor", 3, I("fallback_entries", 7))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3 (t0 header + span + event)", len(events))
	}
	hdr := events[0]
	if hdr.Name != MetaT0 || hdr.Kind != "meta" {
		t.Fatalf("first record is not the t0 header: %+v", hdr)
	}
	if _, err := time.Parse(time.RFC3339Nano, hdr.Attrs["t0"].(string)); err != nil {
		t.Fatalf("t0 header is not RFC3339: %v", err)
	}
	events = events[1:]
	span := events[0]
	if span.Name != "advance/deposit" || span.Kind != "span" || span.Step != 3 {
		t.Fatalf("span event wrong: %+v", span)
	}
	if span.Dur <= 0 {
		t.Fatal("span duration not recorded")
	}
	if span.Attrs["mode"] != "cic" {
		t.Fatalf("span attrs wrong: %v", span.Attrs)
	}
	ev := events[1]
	if ev.Kind != "event" || ev.Dur != 0 {
		t.Fatalf("point event wrong: %+v", ev)
	}
	if ev.Attrs["fallback_entries"].(float64) != 7 {
		t.Fatalf("event attrs wrong: %v", ev.Attrs)
	}
}

func TestNilTracerAndObserverAreInert(t *testing.T) {
	var o *Observer
	sp := o.Span("x", 0) // must not panic or read the clock
	sp.End()
	o.Event("y", 0)
	o.RecordPredictor(StepSample{}, nil)
	if o.Enabled() || o.TraceEnabled() || o.PredictorEnabled() {
		t.Fatal("nil observer claims to be enabled")
	}
	var tr *Tracer
	if tr.Enabled() || tr.Err() != nil {
		t.Fatal("nil tracer misbehaves")
	}
	// Observer with no sink: spans still feed the registry.
	o2 := New()
	o2.Span("stage", 1).End()
	if o2.Reg.Histogram("stage_seconds", StageSecondsBuckets, Label{"stage", "stage"}).Count() != 1 {
		t.Fatal("span did not feed registry without a trace sink")
	}
}

type failingSink struct{ err error }

func (s failingSink) Emit(Event) error { return s.err }

func TestTracerSurfacesSinkError(t *testing.T) {
	want := errors.New("disk full")
	tr := NewTracer(failingSink{want})
	o := &Observer{Trace: tr}
	o.Span("s", 0).End()
	if !errors.Is(tr.Err(), want) {
		t.Fatalf("Err() = %v, want %v", tr.Err(), want)
	}
	// Later events must not panic and the first error is retained.
	o.Event("e", 1)
	if !errors.Is(tr.Err(), want) {
		t.Fatal("first error not retained")
	}
}

// memSink collects every event in memory. It stands in for
// flight.Recorder, the ring-buffer sink, which this package's tests cannot
// import (flight imports obs).
type memSink struct {
	mu  sync.Mutex
	evs []Event
}

func (s *memSink) Emit(e Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evs = append(s.evs, e)
	return nil
}

// Events returns a copy of the events emitted so far, in emit order.
func (s *memSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.evs...)
}

// failAfterWriter accepts the first n bytes and then fails every write.
type failAfterWriter struct {
	n   int
	err error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.err
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.err
	}
	w.n -= len(p)
	return len(p), nil
}

// closeRecorder wraps a buffer and records whether Close ran.
type closeRecorder struct {
	bytes.Buffer
	closed   bool
	closeErr error
}

func (c *closeRecorder) Close() error {
	c.closed = true
	return c.closeErr
}

func TestJSONLSinkCloseFlushesAndClosesWriter(t *testing.T) {
	w := &closeRecorder{}
	sink := NewJSONLSink(w)
	if err := sink.Emit(Event{Name: "a", Kind: "event"}); err != nil {
		t.Fatal(err)
	}
	// Nothing reached the writer yet: the sink buffers.
	if w.Len() != 0 {
		t.Fatalf("sink wrote %d bytes before Close", w.Len())
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if !w.closed {
		t.Fatal("Close did not close the underlying writer")
	}
	var e Event
	if err := json.Unmarshal(bytes.TrimSpace(w.Bytes()), &e); err != nil || e.Name != "a" {
		t.Fatalf("flushed line wrong (%v): %q", err, w.String())
	}
	// Idempotent: a second Close neither double-closes nor errors.
	w.closed = false
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if w.closed {
		t.Fatal("second Close closed the writer again")
	}
}

func TestJSONLSinkEmitAfterCloseFails(t *testing.T) {
	// An event emitted after Close (a watchdog firing during shutdown,
	// say) must be rejected with ErrSinkClosed, not buffered into a
	// writer nothing will ever flush again — and the close-time contents
	// must not change.
	w := &closeRecorder{}
	sink := NewJSONLSink(w)
	if err := sink.Emit(Event{Name: "a", Kind: "event"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	flushed := w.String()
	if err := sink.Emit(Event{Name: "late", Kind: "event"}); !errors.Is(err, ErrSinkClosed) {
		t.Fatalf("Emit after Close = %v, want ErrSinkClosed", err)
	}
	if w.String() != flushed {
		t.Fatalf("post-Close Emit changed the output: %q -> %q", flushed, w.String())
	}
	// The closed state is not a sticky *error*: Close still reports a
	// clean run.
	if err := sink.Err(); err != nil {
		t.Fatalf("Err after clean close = %v", err)
	}
}

func TestJSONLSinkSurfacesMidRunWriteError(t *testing.T) {
	wantErr := errors.New("disk full")
	sink := NewJSONLSink(&failAfterWriter{n: 16, err: wantErr})
	// Fill past the bufio buffer so Emit hits the broken writer.
	var firstErr error
	for i := 0; i < 10000 && firstErr == nil; i++ {
		firstErr = sink.Emit(Event{Name: "spanspanspan", Kind: "span", Step: i})
	}
	if !errors.Is(firstErr, wantErr) {
		t.Fatalf("Emit error = %v, want %v", firstErr, wantErr)
	}
	// The sink is dead: later emits return the first error immediately.
	if err := sink.Emit(Event{Name: "late"}); !errors.Is(err, wantErr) {
		t.Fatalf("post-failure Emit = %v, want first error", err)
	}
	// Close surfaces it too, so end-of-run cleanup cannot miss it.
	if err := sink.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close = %v, want first error", err)
	}
	if err := sink.Err(); !errors.Is(err, wantErr) {
		t.Fatalf("Err = %v, want first error", err)
	}
}

func TestJSONLSinkCloseSurfacesFlushError(t *testing.T) {
	wantErr := errors.New("pipe closed")
	sink := NewJSONLSink(&failAfterWriter{n: 0, err: wantErr})
	if err := sink.Emit(Event{Name: "a"}); err != nil {
		// Small event stays in the buffer; Emit must not fail yet.
		t.Fatalf("buffered Emit failed early: %v", err)
	}
	if err := sink.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close = %v, want flush error %v", err, wantErr)
	}
}

package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSinkClosed is returned by JSONLSink.Emit after Close: the event was
// not written anywhere, rather than silently buffered into a flushed-and-
// forgotten buffer.
var ErrSinkClosed = errors.New("obs: emit on closed sink")

// Event is one trace record. Timestamps are seconds since the tracer was
// created; Dur is the span duration in seconds (0 for point events).
// Trace/Span/Parent carry the causal context: spans get all three (Parent
// empty at a trace root), point events inherit Trace and Parent from the
// scope they were emitted under. All three are empty on traces written
// before span context existed, and on runs without a scoped observer.
type Event struct {
	TS     float64        `json:"ts"`
	Name   string         `json:"name"`
	Kind   string         `json:"kind"` // "span" | "event" | "meta"
	Step   int            `json:"step"`
	Dur    float64        `json:"dur,omitempty"`
	Trace  string         `json:"trace,omitempty"`
	Span   string         `json:"span,omitempty"`
	Parent string         `json:"parent,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// MetaT0 is the name of the wall-clock header event every tracer emits as
// its first record: Attrs["t0"] holds the tracer's creation time in
// RFC3339Nano, anchoring the trace's relative timestamps so JSONL streams
// from separate processes can be merged and aligned. Kind is "meta", which
// every aggregation path ignores.
const MetaT0 = "trace/t0"

// Attr is one event attribute.
type Attr struct {
	Key   string
	Value any
}

// F makes a float attribute.
func F(k string, v float64) Attr { return Attr{k, v} }

// I makes an integer attribute.
func I(k string, v int) Attr { return Attr{k, v} }

// S makes a string attribute.
func S(k, v string) Attr { return Attr{k, v} }

// HostWorkers tags a span with the host-side worker count that executed
// the phase (see internal/hostpar): the knob every kernel host loop is
// parallelised over, recorded so traces can attribute host-phase wall
// times to their concurrency level.
func HostWorkers(n int) Attr { return Attr{"host_workers", n} }

// Sink receives trace events. Implementations must be safe for concurrent
// Emit calls.
type Sink interface {
	Emit(e Event) error
}

// Tracer timestamps events and forwards them to a sink. A nil *Tracer, or
// one with a nil sink, drops everything at the cost of a nil check.
//
// Trace and span IDs are drawn from per-tracer atomic counters rather than
// a random source, so two runs of the same scenario produce the same ID
// sequence and traces stay replayable and diffable.
type Tracer struct {
	sink  Sink
	start time.Time
	wall  time.Time

	traceSeq atomic.Uint64
	spanSeq  atomic.Uint64
	t0Once   sync.Once

	mu  sync.Mutex
	err error
}

// NewTracer returns a tracer writing to sink (nil sink disables it).
func NewTracer(sink Sink) *Tracer {
	return &Tracer{sink: sink, start: time.Now(), wall: time.Now()}
}

// nextTraceID returns a fresh deterministic trace ID ("t-000001", ...).
func (t *Tracer) nextTraceID() string {
	return fmt.Sprintf("t-%06d", t.traceSeq.Add(1))
}

// nextSpanID returns a fresh deterministic span ID ("s-000001", ...).
func (t *Tracer) nextSpanID() string {
	return fmt.Sprintf("s-%06d", t.spanSeq.Add(1))
}

// Enabled reports whether events reach a sink.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Err returns the first sink error encountered, if any; the tracer keeps
// accepting events after an error (telemetry must not kill a run) but
// remembers it so the caller can report a broken trace file at the end.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *Tracer) emit(name, kind string, step int, dur float64, attrs []Attr) {
	t.emitCtx(name, kind, step, dur, "", "", "", nil, attrs)
}

// emitCtx is the full-context emit path: trace/span/parent IDs plus the
// scope's baggage attrs, which are stamped first so explicit attrs win on
// a key collision.
func (t *Tracer) emitCtx(name, kind string, step int, dur float64, trace, span, parent string, baggage, attrs []Attr) {
	if !t.Enabled() {
		return
	}
	t.t0Once.Do(t.emitT0)
	e := Event{
		TS:     time.Since(t.start).Seconds(),
		Name:   name,
		Kind:   kind,
		Step:   step,
		Dur:    dur,
		Trace:  trace,
		Span:   span,
		Parent: parent,
	}
	if n := len(baggage) + len(attrs); n > 0 {
		e.Attrs = make(map[string]any, n)
		for _, a := range baggage {
			e.Attrs[a.Key] = a.Value
		}
		for _, a := range attrs {
			e.Attrs[a.Key] = a.Value
		}
	}
	t.send(e)
}

// emitT0 writes the wall-clock anchor as the trace's first record.
func (t *Tracer) emitT0() {
	t.send(Event{
		TS:    time.Since(t.start).Seconds(),
		Name:  MetaT0,
		Kind:  "meta",
		Attrs: map[string]any{"t0": t.wall.Format(time.RFC3339Nano)},
	})
}

func (t *Tracer) send(e Event) {
	if err := t.sink.Emit(e); err != nil {
		t.mu.Lock()
		if t.err == nil {
			t.err = err
		}
		t.mu.Unlock()
	}
}

// JSONLSink writes events as JSON Lines (one object per line) through a
// buffered writer. Call Close when the run ends: it flushes the buffer,
// closes the underlying writer when that writer is an io.Closer, and
// returns the first error seen over the sink's whole lifetime — a failed
// Emit mid-run (disk full, closed pipe) therefore cannot silently
// truncate a trace, even though the tracer keeps the run alive.
type JSONLSink struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	c      io.Closer
	closed bool
	err    error
}

// NewJSONLSink returns a sink writing JSONL to w. If w is an io.Closer
// (an *os.File, say), Close closes it too.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit implements Sink. After the first write error the sink goes dead
// and every later Emit returns that same error without touching the
// broken writer again. Emit after Close returns ErrSinkClosed: a late
// event (a watchdog firing during shutdown, say) must not land in a
// buffer nothing will ever flush.
func (s *JSONLSink) Emit(e Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSinkClosed
	}
	if s.err != nil {
		return s.err
	}
	if err := s.enc.Encode(e); err != nil {
		s.err = err
		return err
	}
	return nil
}

// Flush drains the internal buffer to the underlying writer, returning
// the sink's first error (a flush failure is sticky like an Emit one).
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *JSONLSink) flushLocked() error {
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Err returns the first write, flush or close error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close flushes the buffer, closes the underlying writer when it is an
// io.Closer, and returns the sink's first error. Close is idempotent.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.flushLocked()
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
		s.c = nil
	}
	return s.err
}

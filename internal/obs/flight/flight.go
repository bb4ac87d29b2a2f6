// Package flight is the flight recorder of the telemetry layer: a
// fixed-capacity ring buffer implementing obs.Sink that retains the last
// N span/point events of a run even when no trace file is being written.
// beamsim builds one whenever -postmortem-dir is set. When a run goes
// wrong — a critical alert, a stalled step, a panic — the bundle writer
// drains the recorder into the post-mortem bundle (internal/obs/bundle),
// so the incident ships with the exact trace that led up to it, instead
// of requiring -trace to have been on from the start.
//
// The recorder is deliberately lock-light: one mutex guards a
// pre-allocated ring of obs.Event values, Emit copies the event into the
// next slot and optionally forwards it to a downstream sink (the JSONL
// trace file when -trace is also active), and nothing allocates on the
// emit path beyond what the tracer itself already allocated for the
// event's attributes.
package flight

import (
	"sync"

	"beamdyn/internal/obs"
)

// DefaultDepth is the ring capacity used when none is given: enough to
// hold several full steps of span traffic on the paper's grid sizes while
// costing well under a megabyte.
const DefaultDepth = 4096

// Recorder is a fixed-capacity ring-buffer obs.Sink. A nil *Recorder is
// inert, per the obs package's nil-safety convention.
type Recorder struct {
	fwd obs.Sink

	mu    sync.Mutex
	buf   []obs.Event
	next  int
	total uint64
}

// New returns a recorder retaining the last depth events (depth <= 0
// selects DefaultDepth). forward, when non-nil, receives every event after
// it is recorded — chain the JSONL trace sink here so -trace and the
// flight recorder share one tracer.
func New(depth int, forward obs.Sink) *Recorder {
	if depth <= 0 {
		depth = DefaultDepth
	}
	return &Recorder{buf: make([]obs.Event, depth), fwd: forward}
}

// Emit implements obs.Sink: record into the ring, then forward. A
// forwarding error propagates to the tracer (which keeps the run alive but
// remembers it); the ring itself cannot fail.
func (r *Recorder) Emit(e obs.Event) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.total++
	r.mu.Unlock()
	if r.fwd != nil {
		return r.fwd.Emit(e)
	}
	return nil
}

// Total returns how many events have been emitted over the recorder's
// lifetime, including those the ring has since overwritten.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total <= uint64(len(r.buf)) {
		return 0
	}
	return r.total - uint64(len(r.buf))
}

// Events returns the retained events, oldest first. Safe to call while a
// run is still emitting.
func (r *Recorder) Events() []obs.Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	if r.total < uint64(n) {
		n = int(r.total)
	}
	out := make([]obs.Event, 0, n)
	if r.total >= uint64(len(r.buf)) {
		// Ring is full: the oldest retained event sits at next.
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
		return out
	}
	return append(out, r.buf[:r.next]...)
}

// Package analysis is the offline half of the observability stack: it
// reads the JSONL span traces the obs.Tracer emits and turns them into
// per-kernel/per-phase aggregates (with exact quantiles), causal span
// trees, fleet per-device accounting, predictor fallback-spike detection,
// rp solver cache statistics, cross-run diffs and post-mortem bundle
// triage. cmd/obstool is the CLI over this package.
package analysis

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"beamdyn/internal/obs"
)

// ReadTrace parses a JSONL trace stream. Blank lines are skipped; a
// malformed line fails the parse with its line number, because a trace
// that lost lines mid-run (see JSONLSink.Close) should be noticed, not
// silently half-analyzed.
func ReadTrace(r io.Reader) ([]obs.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	var out []obs.Event
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		e, err := decodeEvent(b)
		if err != nil {
			return nil, fmt.Errorf("trace line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace line %d: %w", line, err)
	}
	return out, nil
}

// decodeEvent parses one trace line. An empty attrs object decodes to nil
// Attrs, the form the tracer writes for an event without attributes (the
// field is omitted when empty), so every decoded event re-encodes to a
// line that reads back equal.
func decodeEvent(b []byte) (obs.Event, error) {
	var e obs.Event
	if err := json.Unmarshal(b, &e); err != nil {
		return obs.Event{}, err
	}
	if len(e.Attrs) == 0 {
		e.Attrs = nil
	}
	return e, nil
}

// ReadTraceFile reads a JSONL trace from path ("-" for stdin).
func ReadTraceFile(path string) ([]obs.Event, error) {
	if path == "-" {
		return ReadTrace(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	evs, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return evs, nil
}

// ReadTraceLenient parses a JSONL trace forgiving exactly one malformed
// FINAL line — the signature of a process killed mid-write (OOM, SIGKILL)
// whose buffered last record was truncated. dropped reports whether a tail
// line was discarded. A malformed line with well-formed lines after it is
// still a hard error: that trace lost data mid-run, not mid-shutdown.
func ReadTraceLenient(r io.Reader) (events []obs.Event, dropped bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	var badLine int
	var badErr error
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		e, uerr := decodeEvent(b)
		if uerr != nil {
			if badErr != nil {
				return nil, false, fmt.Errorf("trace line %d: %w", badLine, badErr)
			}
			badLine, badErr = line, uerr
			continue
		}
		if badErr != nil {
			// A good line after a bad one: the corruption was mid-run.
			return nil, false, fmt.Errorf("trace line %d: %w", badLine, badErr)
		}
		events = append(events, e)
	}
	if serr := sc.Err(); serr != nil {
		return nil, false, fmt.Errorf("trace line %d: %w", line, serr)
	}
	return events, badErr != nil, nil
}

// ReadTraceFileLenient is ReadTraceLenient over a file ("-" for stdin).
func ReadTraceFileLenient(path string) ([]obs.Event, bool, error) {
	if path == "-" {
		return ReadTraceLenient(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	evs, dropped, err := ReadTraceLenient(f)
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	return evs, dropped, nil
}

// FilterJob keeps the events belonging to one job: those whose "job"
// baggage attr matches id, plus meta records (t0 headers apply to the
// whole stream). Events with no job attr — a plain beamsim run's spans —
// are dropped, so the filter is only meaningful on control-plane traces.
func FilterJob(events []obs.Event, id string) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Kind == "meta" {
			out = append(out, e)
			continue
		}
		if j, ok := attrString(e, "job"); ok && j == id {
			out = append(out, e)
		}
	}
	return out
}

// TraceT0 returns the stream's wall-clock anchor: the RFC3339 "t0" attr of
// the first meta header (see obs.MetaT0). ok is false for headerless
// traces written before span context existed.
func TraceT0(events []obs.Event) (string, bool) {
	for _, e := range events {
		if e.Kind == "meta" && e.Name == obs.MetaT0 {
			if t0, ok := attrString(e, "t0"); ok {
				return t0, true
			}
		}
	}
	return "", false
}

// attrFloat reads a numeric attribute (JSON numbers decode as float64;
// integers written through obs.I arrive that way too).
func attrFloat(e obs.Event, key string) (float64, bool) {
	v, ok := e.Attrs[key]
	if !ok {
		return 0, false
	}
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	}
	return 0, false
}

// attrString reads a string attribute.
func attrString(e obs.Event, key string) (string, bool) {
	v, ok := e.Attrs[key]
	if !ok {
		return "", false
	}
	s, ok := v.(string)
	return s, ok
}

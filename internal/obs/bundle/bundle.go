// Package bundle writes and reads post-mortem bundles: the self-contained
// incident directory a run dumps when something goes wrong — a critical
// alert fires, the step loop stalls, or the run errors out. A bundle preserves the evidence a later debugging
// session needs without -trace having been on:
//
//	manifest.json    what happened (reason, step, trigger alert, inventory)
//	flight.jsonl     the flight recorder's retained span/event trace,
//	                 including the per-step "predictor" events
//	snapshot.json    the obs.RunSnapshot, {"metrics": registry snapshot}
//	alerts.json      the alert engine's rule set, log and active alerts
//	checkpoint.gob   the latest simulation checkpoint (when a saver is wired)
//	goroutines.txt   goroutine dump (debug=1 text form)
//
// In a stall bundle (DumpLive from the stall watchdog) goroutines.txt is
// the member that matters: spans are written when they end, so the flight
// trace holds nothing of the stuck step, and only the goroutine stacks
// show where it waits.
//
// cmd/obstool's "postmortem" subcommand summarizes a bundle; the
// flight.jsonl member feeds every existing trace analyzer unchanged.
package bundle

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/obs/flight"
)

// The bundle member file names.
const (
	ManifestFile   = "manifest.json"
	FlightFile     = "flight.jsonl"
	SnapshotFile   = "snapshot.json"
	AlertsFile     = "alerts.json"
	CheckpointFile = "checkpoint.gob"
	GoroutinesFile = "goroutines.txt"
)

// MaxBundles caps how many bundles one Writer produces, so a flapping
// alert cannot fill the disk.
const MaxBundles = 4

// Manifest is the bundle's index document, written last so a complete
// manifest certifies a complete bundle.
type Manifest struct {
	// Reason is the dump cause ("alert", "stall", "run-error", ...).
	Reason string `json:"reason"`
	// Step is the simulation step at dump time.
	Step int `json:"step"`
	// CreatedUnix is the dump wall-clock time (Unix seconds).
	CreatedUnix int64 `json:"created_unix"`
	// Trigger is the alert that caused the dump, when one did.
	Trigger *alert.Alert `json:"trigger,omitempty"`
	// Files inventories the members actually written.
	Files []string `json:"files"`
	// FlightEvents / FlightDropped describe the flight trace: retained
	// event count and how many older events the ring had overwritten.
	FlightEvents  int    `json:"flight_events"`
	FlightDropped uint64 `json:"flight_dropped"`
	// AlertsFired counts log entries in alerts.json.
	AlertsFired int `json:"alerts_fired"`
}

// Config wires a Writer to a run's incident sources. Every field except
// Dir is optional; absent sources simply leave their member out of the
// bundle.
type Config struct {
	// Dir is the parent directory bundles are created under.
	Dir string
	// Obs supplies snapshot.json.
	Obs *obs.Observer
	// Flight supplies flight.jsonl.
	Flight *flight.Recorder
	// Alerts supplies alerts.json.
	Alerts *alert.Engine
	// Checkpoint, when non-nil, writes the latest simulation checkpoint.
	// It is only invoked by Dump (never DumpLive), because saving reads
	// simulation state that a concurrently-running step owns.
	Checkpoint func(io.Writer) error
}

// Writer dumps post-mortem bundles. Safe for concurrent use (the stall
// watchdog and the main loop may race to dump).
type Writer struct {
	cfg Config

	mu      sync.Mutex
	written int
}

// NewWriter returns a bundle writer for cfg.
func NewWriter(cfg Config) *Writer {
	return &Writer{cfg: cfg}
}

// Written returns how many bundles this writer has produced.
func (w *Writer) Written() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Dump writes a full bundle (checkpoint included) and returns its
// directory. trigger may be nil. Call only from the simulation loop's
// goroutine; concurrent callers (watchdogs) must use DumpLive.
func (w *Writer) Dump(reason string, step int, trigger *alert.Alert) (string, error) {
	return w.dump(reason, step, trigger, true)
}

// DumpLive is Dump without the checkpoint member: safe to call from a
// watchdog goroutine while a step is still (or stuck) executing, since
// every remaining source is a point-in-time snapshot behind its own lock.
func (w *Writer) DumpLive(reason string, step int, trigger *alert.Alert) (string, error) {
	return w.dump(reason, step, trigger, false)
}

func (w *Writer) dump(reason string, step int, trigger *alert.Alert, checkpoint bool) (string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.written >= MaxBundles {
		return "", fmt.Errorf("bundle: cap of %d bundles reached (dropping %q at step %d)",
			MaxBundles, reason, step)
	}
	seq := w.written
	dir := filepath.Join(w.cfg.Dir,
		fmt.Sprintf("postmortem-%02d-step%d-%s", seq, step, sanitize(reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}

	m := Manifest{
		Reason:      reason,
		Step:        step,
		CreatedUnix: time.Now().Unix(),
		Trigger:     trigger,
	}

	if w.cfg.Flight != nil {
		events := w.cfg.Flight.Events()
		m.FlightEvents = len(events)
		m.FlightDropped = w.cfg.Flight.Dropped()
		err := writeMember(dir, FlightFile, &m, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			for _, e := range events {
				if err := enc.Encode(e); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return dir, err
		}
	}
	if w.cfg.Obs != nil {
		if err := writeMember(dir, SnapshotFile, &m, w.cfg.Obs.WriteSnapshot); err != nil {
			return dir, err
		}
	}
	if w.cfg.Alerts != nil {
		st := w.cfg.Alerts.Status()
		m.AlertsFired = len(st.Log)
		err := writeMember(dir, AlertsFile, &m, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(st)
		})
		if err != nil {
			return dir, err
		}
	}
	if checkpoint && w.cfg.Checkpoint != nil {
		if err := writeMember(dir, CheckpointFile, &m, w.cfg.Checkpoint); err != nil {
			return dir, err
		}
	}
	if err := writeMember(dir, GoroutinesFile, &m, func(f io.Writer) error {
		return pprof.Lookup("goroutine").WriteTo(f, 1)
	}); err != nil {
		return dir, err
	}

	// Manifest last: its presence marks the bundle complete.
	err := writeMember(dir, ManifestFile, nil, func(f io.Writer) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	})
	if err != nil {
		return dir, err
	}
	w.written++
	return dir, nil
}

// writeMember writes one bundle file and records it in the manifest's
// inventory (m may be nil for the manifest itself).
func writeMember(dir, name string, m *Manifest, fn func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return fmt.Errorf("bundle: writing %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bundle: closing %s: %w", name, err)
	}
	if m != nil {
		m.Files = append(m.Files, name)
	}
	return nil
}

// sanitize maps a free-form reason onto a directory-name-safe slug.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ', r == '_', r == '/', r == ':':
			b.WriteByte('-')
		}
	}
	if b.Len() == 0 {
		return "incident"
	}
	const maxSlug = 48
	out := b.String()
	if len(out) > maxSlug {
		out = out[:maxSlug]
	}
	return out
}

// ReadManifest loads a bundle directory's manifest.
func ReadManifest(dir string) (Manifest, error) {
	var m Manifest
	b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return m, fmt.Errorf("bundle: %s: %w", ManifestFile, err)
	}
	return m, nil
}

// ReadAlerts loads a bundle's alert status; a bundle without an
// alerts.json member returns the zero Status.
func ReadAlerts(dir string) (alert.Status, error) {
	var st alert.Status
	b, err := os.ReadFile(filepath.Join(dir, AlertsFile))
	if err != nil {
		if os.IsNotExist(err) {
			return st, nil
		}
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("bundle: %s: %w", AlertsFile, err)
	}
	return st, nil
}

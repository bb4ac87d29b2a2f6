package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/obs/bundle"
)

// Postmortem is a loaded post-mortem bundle: the manifest, the alert
// engine's final status and the flight-recorder trace, ready for offline
// triage (the "obstool postmortem" subcommand).
type Postmortem struct {
	// Dir is the bundle directory.
	Dir string
	// Manifest is the bundle's index document.
	Manifest bundle.Manifest
	// Alerts is the alert status at dump time (zero when the run had no
	// alert engine).
	Alerts alert.Status
	// Trace holds the flight recorder's retained events (nil when the
	// bundle has no flight member).
	Trace []obs.Event
}

// ReadPostmortem loads a bundle directory. A missing manifest is an error
// (the bundle never completed); missing optional members are not.
func ReadPostmortem(dir string) (Postmortem, error) {
	pm := Postmortem{Dir: dir}
	m, err := bundle.ReadManifest(dir)
	if err != nil {
		return pm, fmt.Errorf("postmortem: %w (incomplete bundle? the manifest is written last)", err)
	}
	pm.Manifest = m
	if pm.Alerts, err = bundle.ReadAlerts(dir); err != nil {
		return pm, err
	}
	if events, err := ReadTraceFile(filepath.Join(dir, bundle.FlightFile)); err == nil {
		pm.Trace = events
	}
	return pm, nil
}

// Report renders the bundle as a human-readable triage summary: what
// fired, the alert history, and the flight trace's per-span aggregation.
func (pm Postmortem) Report() string {
	var b strings.Builder
	m := pm.Manifest
	fmt.Fprintf(&b, "post-mortem bundle: %s\n", pm.Dir)
	fmt.Fprintf(&b, "  reason:  %s (step %d, %s)\n", m.Reason, m.Step,
		time.Unix(m.CreatedUnix, 0).UTC().Format(time.RFC3339))
	if m.Trigger != nil {
		fmt.Fprintf(&b, "  trigger: %s\n", m.Trigger.Message)
	}
	fmt.Fprintf(&b, "  files:   %s\n", strings.Join(m.Files, " "))
	fmt.Fprintf(&b, "  flight:  %d events retained, %d older dropped\n",
		m.FlightEvents, m.FlightDropped)

	if len(pm.Alerts.Rules) > 0 {
		fmt.Fprintf(&b, "\nalert rules (%d steps evaluated): %s\n",
			pm.Alerts.StepsEvaluated, strings.Join(pm.Alerts.Rules, "; "))
	}
	if len(pm.Alerts.Log) > 0 {
		fmt.Fprintf(&b, "alert log:\n")
		for _, a := range pm.Alerts.Log {
			state := "active"
			if !a.Active {
				state = fmt.Sprintf("resolved @ step %d", a.ResolvedStep)
			}
			fmt.Fprintf(&b, "  step %4d  %-8s %-40s value=%.4g threshold=%.4g (%s)\n",
				a.Step, a.Severity, a.Rule, a.Value, a.Threshold, state)
		}
	}

	if len(pm.Trace) > 0 {
		fmt.Fprintf(&b, "\nflight trace (steps %d..%d):\n",
			pm.Trace[0].Step, pm.Trace[len(pm.Trace)-1].Step)
		b.WriteString(SummaryTable(Aggregate(pm.Trace)))
	}
	return b.String()
}

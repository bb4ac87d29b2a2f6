package bundle_test

import (
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"beamdyn/internal/core"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/obs/analysis"
	"beamdyn/internal/obs/bundle"
	"beamdyn/internal/obs/flight"
	"beamdyn/internal/phys"
)

func testConfig() core.Config {
	return core.Config{
		Beam: phys.Beam{
			NumParticles: 20000,
			TotalCharge:  1e-9,
			SigmaX:       20e-6,
			SigmaY:       50e-6,
			Energy:       4.3e9,
		},
		NX: 24, NY: 24,
		Kappa: 4,
		Tol:   1e-8,
		Seed:  42,
		Rigid: true,
	}
}

// TestChaosRunDumpsPostmortemBundle is the incident layer's end-to-end
// acceptance test: a fleet run with alerting enabled must dump a
// post-mortem bundle when a critical alert fires, whose flight trace
// contains the alerting step's spans and whose alert log names the fired
// rule — the exact chain beamsim wires with -alerts/-postmortem-dir. The
// trigger is one the simulation makes itself: Predictive-RP's safety net
// refines some panels on every step, and "fallback_rate>0" fires on the
// first step planned from a trained forecast.
func TestChaosRunDumpsPostmortemBundle(t *testing.T) {
	sim := core.New(testConfig())

	// The subregion count grows by one per step from step 2 (the first
	// potentials step) until it reaches kappa = 4 at step 5; the model
	// trained on step 5 forecasts step 6 at that count.
	const alertStep = 6
	sim.Algo = fleet.New(fleet.Config{
		Devices: []*gpusim.Device{gpusim.New(gpusim.KeplerK40()), gpusim.New(gpusim.KeplerK40())},
		MakeKernel: func(id int, dev *gpusim.Device) kernels.Algorithm {
			return kernels.NewPredictive(dev)
		},
	})

	// The flight recorder is the only trace sink: no JSONL trace file is
	// configured, as in a -postmortem-dir run without -trace.
	o := obs.New()
	rec := flight.New(512, nil)
	o.Trace = obs.NewTracer(rec)
	sim.Obs = o

	dir := t.TempDir()
	var w *bundle.Writer
	rules, err := alert.ParseRules("fallback_rate>0:for=1")
	if err != nil {
		t.Fatal(err)
	}
	eng := alert.NewEngine(alert.Config{
		Rules: rules,
		Obs:   o,
		OnAlert: func(a alert.Alert) {
			if a.Severity != alert.Critical.String() {
				return
			}
			trigger := a
			if _, err := w.Dump("alert", a.Step, &trigger); err != nil {
				t.Errorf("bundle dump: %v", err)
			}
		},
	})
	sim.Alerts = eng
	w = bundle.NewWriter(bundle.Config{
		Dir:        dir,
		Obs:        o,
		Flight:     rec,
		Alerts:     eng,
		Checkpoint: sim.Save,
	})

	for sim.Step <= alertStep+1 {
		sim.Advance() // the alert stays active: no second bundle
	}

	if w.Written() != 1 {
		t.Fatalf("wrote %d bundles, want exactly 1", w.Written())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("bundle parent dir: entries=%v err=%v", entries, err)
	}
	bdir := filepath.Join(dir, entries[0].Name())

	pm, err := analysis.ReadPostmortem(bdir)
	if err != nil {
		t.Fatal(err)
	}
	m := pm.Manifest
	if m.Reason != "alert" || m.Step != alertStep {
		t.Fatalf("manifest = %+v", m)
	}
	if m.Trigger == nil || m.Trigger.Rule != "fallback_rate>0" {
		t.Fatalf("manifest trigger = %+v", m.Trigger)
	}
	// The inventory is exactly these members, in write order, and each
	// is on disk.
	members := []string{
		bundle.FlightFile, bundle.SnapshotFile, bundle.AlertsFile,
		bundle.CheckpointFile, bundle.GoroutinesFile,
	}
	if !slices.Equal(m.Files, members) {
		t.Errorf("manifest inventory = %v, want %v", m.Files, members)
	}
	for _, name := range members {
		if _, err := os.Stat(filepath.Join(bdir, name)); err != nil {
			t.Errorf("bundle member %s missing: %v", name, err)
		}
	}

	// The alert log names the fired rule.
	if len(pm.Alerts.Log) != 1 || pm.Alerts.Log[0].Rule != "fallback_rate>0" {
		t.Fatalf("alert log = %+v", pm.Alerts.Log)
	}
	if pm.Alerts.Log[0].Step != alertStep || !pm.Alerts.Log[0].Active {
		t.Fatalf("alert log entry = %+v", pm.Alerts.Log[0])
	}

	// The flight trace covers the alerting step: the fleet's scheduling
	// span, the simulation's advance span, and the alert event itself.
	want := map[string]bool{"fleet/step": false, "advance": false, "alert": false}
	for _, e := range pm.Trace {
		if e.Step == alertStep {
			if _, ok := want[e.Name]; ok {
				want[e.Name] = true
			}
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("flight trace has no %q record at alerting step %d", name, alertStep)
		}
	}

	// The checkpoint member is a loadable simulation at the dump step.
	cf, err := os.Open(filepath.Join(bdir, bundle.CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	restored, err := core.Load(cf)
	if err != nil {
		t.Fatalf("bundle checkpoint does not load: %v", err)
	}
	if restored.Step != alertStep+1 {
		t.Fatalf("checkpoint at step %d, want %d", restored.Step, alertStep+1)
	}

	// And the triage report names the essentials.
	rep := pm.Report()
	for _, needle := range []string{"reason:  alert", "fallback_rate>0", "fleet/step"} {
		if !strings.Contains(rep, needle) {
			t.Errorf("postmortem report missing %q:\n%s", needle, rep)
		}
	}
}

// TestWriterCapAndLiveDump covers the writer's flood guard and the
// checkpoint-free live dump the stall watchdog uses.
func TestWriterCapAndLiveDump(t *testing.T) {
	dir := t.TempDir()
	o := obs.New()
	rec := flight.New(8, nil)
	o.Trace = obs.NewTracer(rec)
	o.Span("advance", 3).End()

	checkpoints := 0
	w := bundle.NewWriter(bundle.Config{
		Dir: dir, Obs: o, Flight: rec,
		Checkpoint: func(io.Writer) error { checkpoints++; return nil },
	})

	// DumpLive must not invoke the checkpoint saver: it runs from the
	// watchdog goroutine while a (stuck) step may own the state.
	ldir, err := w.DumpLive("stall", 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if checkpoints != 0 {
		t.Fatal("DumpLive invoked the checkpoint saver")
	}
	if _, err := os.Stat(filepath.Join(ldir, bundle.CheckpointFile)); !os.IsNotExist(err) {
		t.Fatalf("live bundle has a checkpoint member (err=%v)", err)
	}
	m, err := bundle.ReadManifest(ldir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reason != "stall" || m.Step != 3 || m.FlightEvents != 2 {
		// 2 = the tracer's t0 header + the advance span.
		t.Fatalf("live manifest = %+v", m)
	}

	// Each full Dump checkpoints; the bundle after the cap is refused.
	for i := 1; i < bundle.MaxBundles; i++ {
		if _, err := w.Dump("alert", 3+i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if checkpoints != bundle.MaxBundles-1 {
		t.Fatalf("checkpoint saver ran %d times, want %d", checkpoints, bundle.MaxBundles-1)
	}
	if _, err := w.Dump("alert", 9, nil); err == nil {
		t.Fatal("MaxBundles cap not enforced")
	}
	if w.Written() != bundle.MaxBundles {
		t.Fatalf("written = %d, want %d", w.Written(), bundle.MaxBundles)
	}
}

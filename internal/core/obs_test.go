package core

import (
	"fmt"
	"testing"

	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/obs/flight"
)

func TestAdvanceEmitsStageSpans(t *testing.T) {
	s := New(testConfig())
	s.Algo = kernels.NewPredictive(gpusim.New(gpusim.KeplerK40()))
	o := obs.New()
	sink := flight.New(0, nil)
	o.Trace = obs.NewTracer(sink)
	s.Obs = o

	s.Warmup()
	s.Advance()

	names := map[string]int{}
	lastStep := map[string]int{}
	for _, e := range sink.Events() {
		names[e.Name]++
		lastStep[e.Name] = e.Step
	}
	stages := []string{
		"advance", "advance/deposit", "advance/potentials",
		"advance/forces", "advance/push",
	}
	for _, st := range stages {
		if names[st] == 0 {
			t.Fatalf("stage %q emitted no spans (got %v)", st, names)
		}
		if lastStep[st] != s.Step-1 {
			t.Fatalf("stage %q last step %d, want %d", st, lastStep[st], s.Step-1)
		}
	}
	// Deposit and push run every step; potentials and forces only once the
	// retardation history is full.
	if names["advance/deposit"] != names["advance"] || names["advance/push"] != names["advance"] {
		t.Fatalf("per-step stages out of sync with outer span: %v", names)
	}
	if names["advance/potentials"] != names["advance/forces"] {
		t.Fatalf("potentials/forces spans out of sync: %v", names)
	}
	// The observer is forwarded to the kernel: predictive sub-spans and
	// quality samples appear without any explicit SetObserver call.
	if names["predictive/predict"] == 0 {
		t.Fatal("observer not forwarded to the kernel")
	}
	if len(o.Pred.Samples()) == 0 {
		t.Fatal("no predictor samples recorded through Advance")
	}
	if got := o.Reg.Counter("sim_steps_total").Value(); got != uint64(s.Step) {
		t.Fatalf("sim_steps_total = %d, want %d", got, s.Step)
	}
	if got := o.Reg.Gauge("sim_step").Value(); got != float64(s.Step) {
		t.Fatalf("sim_step gauge = %g, want %d", got, s.Step)
	}
}

func TestAdvanceWithoutObserverMatchesObserved(t *testing.T) {
	// Telemetry must not perturb the physics: identical trajectories with
	// and without an observer attached.
	plain := New(testConfig())
	traced := New(testConfig())
	traced.Obs = obs.New()
	plain.Warmup()
	traced.Warmup()
	for i := 0; i < 2; i++ {
		plain.Advance()
		traced.Advance()
	}
	if plain.Step != traced.Step {
		t.Fatalf("step drift: %d vs %d", plain.Step, traced.Step)
	}
	a, b := plain.Potential, traced.Potential
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("observer changed potential at %d", i)
		}
	}
}

func TestAdvanceWithIncidentLayerBitwiseIdentical(t *testing.T) {
	// The full incident layer — flight recorder, alert engine over the
	// default rules, physics-invariant gauges — must leave
	// the simulation output bitwise identical to a bare run.
	plain := New(testConfig())
	armed := New(testConfig())

	o := obs.New()
	rec := flight.New(128, nil)
	o.Trace = obs.NewTracer(rec)
	armed.Obs = o
	rules, err := alert.ParseRules(alert.DefaultRules)
	if err != nil {
		t.Fatal(err)
	}
	armed.Alerts = alert.NewEngine(alert.Config{Rules: rules, Obs: o})

	plain.Warmup()
	armed.Warmup()
	for i := 0; i < 2; i++ {
		plain.Advance()
		armed.Advance()
	}
	if plain.Step != armed.Step {
		t.Fatalf("step drift: %d vs %d", plain.Step, armed.Step)
	}
	a, b := plain.Potential, armed.Potential
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("incident layer changed potential at %d", i)
		}
	}
	// The layer actually ran: rules were evaluated every step, the flight
	// recorder retained spans, and the invariant gauges were published.
	if st := armed.Alerts.Status(); st.StepsEvaluated != armed.Step {
		t.Fatalf("engine evaluated %d steps, want %d", st.StepsEvaluated, armed.Step)
	}
	if rec.Total() == 0 {
		t.Fatal("flight recorder saw no events")
	}
	for _, g := range []string{"beam_total_charge", "beam_charge_drift", "beam_moment_drift"} {
		found := false
		for _, gv := range o.Reg.Snapshot().Gauges {
			if gv.Name == g {
				found = true
			}
		}
		if !found {
			t.Fatalf("invariant gauge %s not published", g)
		}
	}
}

// TestDefaultRulesQuietOnHealthyRuns: the stock rules watch the forecast
// and the charge, so a healthy run of every kernel fires nothing, with or
// without an observer. This is beamsim's "-alerts default -n 5000 -grid
// 32" run through warm-up and three steps; Two-Phase-RP, which refines a
// uniform seed on every step, and the warm-up steps of the other two,
// whose subregion count grows every step, feed no predictor signal.
func TestDefaultRulesQuietOnHealthyRuns(t *testing.T) {
	makers := map[string]func(*gpusim.Device) kernels.Algorithm{
		"twophase":   func(d *gpusim.Device) kernels.Algorithm { return kernels.NewTwoPhase(d) },
		"heuristic":  func(d *gpusim.Device) kernels.Algorithm { return kernels.NewHeuristic(d) },
		"predictive": func(d *gpusim.Device) kernels.Algorithm { return kernels.NewPredictive(d) },
	}
	rules, err := alert.ParseRules(alert.DefaultRules)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"twophase", "heuristic", "predictive"} {
		for _, observed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/observed=%v", name, observed), func(t *testing.T) {
				cfg := testConfig()
				cfg.NX, cfg.NY, cfg.Kappa, cfg.Beam.NumParticles = 32, 32, 6, 5000
				s := New(cfg)
				s.Algo = makers[name](gpusim.New(gpusim.KeplerK40()))
				if observed {
					s.Obs = obs.New()
				}
				s.Alerts = alert.NewEngine(alert.Config{Rules: rules, Obs: s.Obs})
				s.Warmup()
				s.Run(3)
				if st := s.Alerts.Status(); len(st.Log) > 0 || st.StepsEvaluated != s.Step {
					t.Fatalf("%d steps evaluated, alerts %+v", st.StepsEvaluated, st.Log)
				}
			})
		}
	}
}

// TestFleetFallbackRateIsTheStepsRate: on a two-device Predictive-RP
// fleet whose bands fall back at different rates, the fallback_rate the
// alert engine evaluates is the reassembled step's FallbackEntries per
// point, not whichever band recorded its predictor sample last.
func TestFleetFallbackRateIsTheStepsRate(t *testing.T) {
	s := New(testConfig())
	s.Algo = fleet.New(fleet.Config{
		Devices: []*gpusim.Device{gpusim.New(gpusim.KeplerK40()), gpusim.New(gpusim.KeplerK40())},
		MakeKernel: func(_ int, d *gpusim.Device) kernels.Algorithm {
			return kernels.NewPredictive(d)
		},
	})
	s.Obs = obs.New()
	rules, err := alert.ParseRules("fallback_rate>=0:for=1")
	if err != nil {
		t.Fatal(err)
	}
	s.Warmup()
	for i := 0; i < 3; i++ {
		// A fresh engine per step: the rule fires on every step the
		// engine has a predictor signal for, and records its value.
		s.Alerts = alert.NewEngine(alert.Config{Rules: rules})
		step := s.Advance()
		var bands []float64
		for _, smp := range s.Obs.Pred.Samples() {
			if smp.Step == step {
				bands = append(bands, smp.FallbackRate)
			}
		}
		if len(bands) != 2 || bands[0] == bands[1] {
			t.Fatalf("step %d: band fallback rates %v, want two that differ", step, bands)
		}
		log := s.Alerts.Status().Log
		want := float64(s.Last.FallbackEntries) / float64(len(s.Last.Points))
		if len(log) != 1 || log[0].Value != want {
			t.Fatalf("step %d: engine evaluated %+v, want fallback_rate %g (bands %v)", step, log, want, bands)
		}
	}
}

package core

import (
	"fmt"
	"strings"
	"testing"

	"beamdyn/internal/diagnostics"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/obs/flight"
	"beamdyn/internal/retard"
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
	// The observer is forwarded to the kernel: predictive sub-spans appear
	// without any explicit SetObserver call, and Advance records the
	// forecast steps' predictor samples.
	if names["predictive/predict"] == 0 {
		t.Fatal("observer not forwarded to the kernel")
	}
	if names["predictor"] == 0 {
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

// predictorEvents counts the "predictor" trace events rec retained.
func predictorEvents(rec *flight.Recorder) int {
	n := 0
	for _, e := range rec.Events() {
		if e.Name == "predictor" {
			n++
		}
	}
	return n
}

// predictorSeries lists the predictor_* series in reg.
func predictorSeries(reg *obs.Registry) []string {
	snap := reg.Snapshot()
	var out []string
	add := func(name string) {
		if strings.HasPrefix(name, "predictor_") {
			out = append(out, name)
		}
	}
	for _, c := range snap.Counters {
		add(c.Name)
	}
	for _, g := range snap.Gauges {
		add(g.Name)
	}
	for _, h := range snap.Histograms {
		add(h.Name)
	}
	return out
}

// TestAdvanceRecordsOneSamplePerForecastStep: Advance records one
// predictor sample per step its kernel planned from a trained forecast,
// labelled with the kernel's name, and none on warm-up, bootstrap or
// Two-Phase-RP steps. The forecast-error histogram holds one observation
// per point of those steps only: Predictive-RP's 2-panel bootstrap seed
// must not reach it.
func TestAdvanceRecordsOneSamplePerForecastStep(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(*gpusim.Device) kernels.Algorithm
	}{
		{"predictive", func(d *gpusim.Device) kernels.Algorithm { return kernels.NewPredictive(d) }},
		{"heuristic", func(d *gpusim.Device) kernels.Algorithm { return kernels.NewHeuristic(d) }},
		{"twophase", func(d *gpusim.Device) kernels.Algorithm { return kernels.NewTwoPhase(d) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(testConfig())
			s.Algo = tc.mk(gpusim.New(gpusim.KeplerK40()))
			rec := flight.New(0, nil)
			s.Obs = &obs.Observer{Trace: obs.NewTracer(rec), Reg: obs.NewRegistry()}
			var steps, points int
			for i := 0; i < 10; i++ {
				s.Advance()
				if s.Last != nil && s.Last.Forecast {
					steps++
					points += len(s.Last.Points)
				}
			}
			if tc.name == "twophase" {
				if steps != 0 || predictorEvents(rec) != 0 {
					t.Fatalf("Two-Phase-RP: %d forecast steps, %d predictor events; want none", steps, predictorEvents(rec))
				}
				if series := predictorSeries(s.Obs.Reg); len(series) != 0 {
					t.Fatalf("Two-Phase-RP registered predictor series %v", series)
				}
				return
			}
			kl := obs.Label{Key: "kernel", Value: s.Algo.Name()}
			if steps == 0 || steps == s.Step-2 {
				t.Fatalf("%d forecast steps of %d kernel steps: the run must hold both kinds", steps, s.Step-2)
			}
			if got := s.Obs.Reg.Counter("predictor_steps_total", kl).Value(); got != uint64(steps) {
				t.Fatalf("predictor_steps_total = %d, want %d forecast steps", got, steps)
			}
			if got := predictorEvents(rec); got != steps {
				t.Fatalf("%d predictor events, want %d forecast steps", got, steps)
			}
			if got := s.Obs.Reg.Histogram("predictor_forecast_error", obs.DefaultErrBounds, kl).Count(); got != uint64(points) {
				t.Fatalf("predictor_forecast_error holds %d observations, want %d (the forecast steps' points)", got, points)
			}
		})
	}
}

// TestFleetFallbackRateIsTheStepsRate: a two-device Predictive-RP fleet
// records one predictor sample per fleet step, labelled by the fleet, and
// on a step whose bands fall back at different rates the
// predictor_fallback_rate gauge and the fallback_rate the alert engine
// evaluates are both the reassembled step's FallbackEntries per point,
// not whichever band finished last. The band rates come from the band
// kernels' predictive/verify spans.
func TestFleetFallbackRateIsTheStepsRate(t *testing.T) {
	s := New(testConfig())
	s.Algo = fleet.New(fleet.Config{
		Devices: []*gpusim.Device{gpusim.New(gpusim.KeplerK40()), gpusim.New(gpusim.KeplerK40())},
		MakeKernel: func(_ int, d *gpusim.Device) kernels.Algorithm {
			return kernels.NewPredictive(d)
		},
	})
	rec := flight.New(0, nil)
	s.Obs = &obs.Observer{Trace: obs.NewTracer(rec), Reg: obs.NewRegistry()}
	kl := obs.Label{Key: "kernel", Value: s.Algo.Name()}
	rules, err := alert.ParseRules("fallback_rate>=0:for=1")
	if err != nil {
		t.Fatal(err)
	}
	bandPoints := s.Cfg.NX * s.Cfg.NY / 2
	var steps, differ int
	for i := 0; i < 10; i++ {
		// A fresh engine per step: the rule fires on every step the
		// engine has a predictor signal for, and records its value.
		s.Alerts = alert.NewEngine(alert.Config{Rules: rules})
		step := s.Advance()
		log := s.Alerts.Status().Log
		if s.Last == nil || !s.Last.Forecast {
			if len(log) != 0 {
				t.Fatalf("step %d: engine evaluated %+v without a forecast", step, log)
			}
			continue
		}
		steps++
		var bands []float64
		for _, e := range rec.Events() {
			if e.Name == "predictive/verify" && e.Step == step {
				bands = append(bands, float64(e.Attrs["fallback_entries"].(int))/float64(bandPoints))
			}
		}
		if len(bands) != 2 {
			t.Fatalf("step %d: %d band verify spans, want 2", step, len(bands))
		}
		if bands[0] != bands[1] {
			differ++
		}
		want := float64(s.Last.FallbackEntries) / float64(len(s.Last.Points))
		if got := s.Obs.Reg.Gauge("predictor_fallback_rate", kl).Value(); got != want {
			t.Fatalf("step %d: predictor_fallback_rate = %g, want the step's %g (bands %v)", step, got, want, bands)
		}
		if len(log) != 1 || log[0].Value != want {
			t.Fatalf("step %d: engine evaluated %+v, want fallback_rate %g (bands %v)", step, log, want, bands)
		}
	}
	if steps == 0 || differ == 0 {
		t.Fatalf("%d forecast steps, %d with differing band rates: the test needs both", steps, differ)
	}
	if got := s.Obs.Reg.Counter("predictor_steps_total", kl).Value(); got != uint64(steps) {
		t.Fatalf("predictor_steps_total = %d, want %d fleet forecast steps", got, steps)
	}
	if got := predictorEvents(rec); got != steps {
		t.Fatalf("%d predictor events, want %d fleet forecast steps", got, steps)
	}
}

// TestAdvancePublishesSolveStats: on the host reference Advance publishes
// each solve's LastStats as the rp_* series, counters summed over steps.
func TestAdvancePublishesSolveStats(t *testing.T) {
	s := New(testConfig())
	s.Obs = obs.New()
	var sum retard.SolveStats
	var fallbacks uint64
	for i := 0; i < 6; i++ {
		s.Advance()
		if !s.Ready() {
			continue
		}
		st := s.solver.LastStats()
		sum.TileHits += st.TileHits
		sum.TileSolves += st.TileSolves
		sum.MemoHits += st.MemoHits
		sum.MemoProbes += st.MemoProbes
		sum.TileW, sum.TileH = st.TileW, st.TileH
		if !st.Tiled {
			fallbacks++
		}
	}
	reg := s.Obs.Reg
	for name, want := range map[string]uint64{
		"rp_tile_hits_total":     sum.TileHits,
		"rp_tile_solves_total":   sum.TileSolves,
		"rp_memo_reuse_total":    sum.MemoHits,
		"rp_memo_probe_total":    sum.MemoProbes,
		"rp_tile_fallback_total": fallbacks,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if sum.MemoProbes == 0 {
		t.Fatal("no solve statistics collected")
	}
	if w, h := reg.Gauge("rp_tile_w").Value(), reg.Gauge("rp_tile_h").Value(); w != float64(sum.TileW) || h != float64(sum.TileH) {
		t.Fatalf("tile-shape gauges = %gx%g, want %dx%d", w, h, sum.TileW, sum.TileH)
	}
}

// TestBeamInvariantsMatchAnalyze: the alert signals' charge and RMS sizes
// are bitwise diagnostics.Analyze's, for a fresh bunch and one that has
// responded to its self-forces.
func TestBeamInvariantsMatchAnalyze(t *testing.T) {
	cfg := testConfig()
	cfg.Rigid = false
	s := New(cfg)
	for step := 0; step < 8; step++ {
		sum := diagnostics.Analyze(s.Ensemble)
		charge, sigX, sigY := beamInvariants(s.Ensemble.P)
		if charge != sum.TotalCharge || sigX != sum.SigmaX || sigY != sum.SigmaY {
			t.Fatalf("step %d: invariants (%v, %v, %v), Analyze (%v, %v, %v)",
				step, charge, sigX, sigY, sum.TotalCharge, sum.SigmaX, sum.SigmaY)
		}
		s.Advance()
	}
}

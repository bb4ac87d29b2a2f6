package alert

import (
	"strings"
	"sync"
	"testing"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/flight"
)

func TestParseRulesGrammar(t *testing.T) {
	rules, err := ParseRules("fallback_rate>0.2:for=5;steptime>2;fallback_entries:for=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	r := rules[0]
	if r.Signal != SigFallbackRate || r.Op != OpGT || r.Threshold != 0.2 || r.For != 5 || r.Severity != Critical {
		t.Fatalf("rule 0 = %+v", r)
	}
	if r.Name() != "fallback_rate>0.2:for=5" {
		t.Fatalf("rule 0 name = %q", r.Name())
	}
	r = rules[1]
	if r.Signal != SigStepTime || r.Op != OpGT || r.Threshold != 2 || r.For != 1 {
		t.Fatalf("rule 1 = %+v", r)
	}
	if r.Name() != "steptime>2" {
		t.Fatalf("rule 1 name = %q", r.Name())
	}
	r = rules[2]
	if r.Signal != SigFallbackEntries || r.Op != OpNone || r.For != 3 {
		t.Fatalf("rule 2 = %+v", r)
	}
}

func TestParseRulesOptionsAndErrors(t *testing.T) {
	rules, err := ParseRules("err_p90>=4:sev=warn,for=2; charge_drift<=0.5 ")
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Severity != Warning || rules[0].For != 2 || rules[0].Op != OpGE {
		t.Fatalf("rule 0 = %+v", rules[0])
	}
	if !strings.Contains(rules[0].Name(), "sev=warn") {
		t.Fatalf("warn severity not rendered: %q", rules[0].Name())
	}
	if rules[1].Op != OpLE || rules[1].Threshold != 0.5 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}

	bad := []string{
		"",
		"bogus_signal>1",
		"fallback_rate>",
		"steptime:mad=0",
		"steptime:mad=6",
		"steptime>1:mad=6",
		"fallback_entries:for=0",
		"fallback_entries:sev=loud",
		"fallback_entries:nope=1",
		// The device lifecycle signals went with the simulated faults.
		"device_failed:for=1",
		"device_degraded",
	}
	for _, s := range bad {
		if _, err := ParseRules(s); err == nil {
			t.Errorf("ParseRules(%q) accepted invalid script", s)
		}
	}
}

func TestDefaultRulesParse(t *testing.T) {
	if _, err := ParseRules(DefaultRules); err != nil {
		t.Fatalf("DefaultRules does not parse: %v", err)
	}
}

func TestRuleNameRoundTrips(t *testing.T) {
	for _, spec := range []string{
		"fallback_rate>0.2:for=5", "steptime>2", "fallback_entries:for=3",
		"err_max>=8:sev=warn", "moment_drift>0.1;err_mean>1:for=2",
	} {
		rules, err := ParseRules(spec)
		if err != nil {
			continue // invalid combos skipped; valid ones must round-trip
		}
		for _, r := range rules {
			again, err := ParseRules(r.Name())
			if err != nil {
				t.Fatalf("canonical form %q does not re-parse: %v", r.Name(), err)
			}
			if again[0] != r {
				t.Fatalf("round trip changed rule: %+v -> %+v", r, again[0])
			}
		}
	}
}

func TestEngineFixedThresholdWithFor(t *testing.T) {
	rules, _ := ParseRules("fallback_rate>0.2:for=3")
	e := NewEngine(Config{Rules: rules})

	in := func(step int, rate float64) Input {
		return Input{Step: step, HasPredictor: true, FallbackRate: rate}
	}
	// Two breaching steps: not yet.
	if f := e.Eval(in(0, 0.5)); len(f) != 0 {
		t.Fatalf("fired after 1 breach: %+v", f)
	}
	if f := e.Eval(in(1, 0.5)); len(f) != 0 {
		t.Fatal("fired after 2 breaches")
	}
	// A clean step resets the streak.
	e.Eval(in(2, 0.1))
	e.Eval(in(3, 0.5))
	e.Eval(in(4, 0.5))
	fired := e.Eval(in(5, 0.5))
	if len(fired) != 1 {
		t.Fatalf("fired %d alerts, want 1", len(fired))
	}
	a := fired[0]
	if a.Step != 5 || a.Rule != "fallback_rate>0.2:for=3" || a.Severity != "critical" || !a.Active {
		t.Fatalf("alert = %+v", a)
	}
	// Still breaching: active, but no re-fire.
	if f := e.Eval(in(6, 0.6)); len(f) != 0 {
		t.Fatal("re-fired while already active")
	}
	if total, crit := e.ActiveCount(); total != 1 || crit != 1 {
		t.Fatalf("active = %d/%d, want 1/1", total, crit)
	}
	// Recovery resolves it.
	e.Eval(in(7, 0.05))
	if total, _ := e.ActiveCount(); total != 0 {
		t.Fatal("alert not resolved after recovery")
	}
	st := e.Status()
	if len(st.Log) != 1 || st.Log[0].Active || st.Log[0].ResolvedStep != 7 {
		t.Fatalf("log = %+v", st.Log)
	}
	if len(st.Active) != 0 || st.StepsEvaluated != 8 {
		t.Fatalf("status = %+v", st)
	}
}

func TestEngineAbsentSignalsNeverFire(t *testing.T) {
	rules, _ := ParseRules("fallback_rate>0:for=1;charge_drift>0:for=1")
	e := NewEngine(Config{Rules: rules})
	// No predictor, no physics: nothing may fire, even on values that
	// would breach if their groups were present.
	in := Input{Step: 0, FallbackRate: 1, ChargeDrift: 1}
	for step := 0; step < 3; step++ {
		in.Step = step
		if f := e.Eval(in); len(f) != 0 {
			t.Fatalf("absent signal group fired: %+v", f)
		}
	}
	in.HasPredictor = true
	if f := e.Eval(in); len(f) != 1 || f[0].Signal != SigFallbackRate {
		t.Fatalf("predictor signal did not fire once present: %+v", f)
	}
}

func TestEngineEmitsMetricsAndTrace(t *testing.T) {
	o := obs.New()
	sink := flight.New(0, nil)
	o.Trace = obs.NewTracer(sink)
	rules, _ := ParseRules("fallback_entries:for=1")
	var cb []Alert
	e := NewEngine(Config{Rules: rules, Obs: o, OnAlert: func(a Alert) { cb = append(cb, a) }})

	// The canonical name omits the for=1 default; it is the metrics label.
	name := rules[0].Name()
	if name != "fallback_entries" {
		t.Fatalf("canonical name = %q", name)
	}
	// Registered at construction: the gauge appears in snapshots before
	// any firing.
	if snap := o.Reg.Snapshot(); len(snap.Gauges) != 1 || snap.Gauges[0].Name != "alert_active" {
		t.Fatalf("alert_active gauge not pre-registered: %+v", snap.Gauges)
	}
	e.Eval(Input{Step: 9, HasPredictor: true, FallbackEntries: 1})
	if len(cb) != 1 || cb[0].Step != 9 {
		t.Fatalf("OnAlert callback = %+v", cb)
	}
	rl := obs.Label{Key: "rule", Value: name}
	if c := o.Reg.Counter("alerts_fired_total", rl, obs.Label{Key: "severity", Value: "critical"}); c.Value() != 1 {
		t.Fatalf("alerts_fired_total = %d", c.Value())
	}
	if g := o.Reg.Gauge("alert_active", rl); g.Value() != 1 {
		t.Fatal("alert_active not set on fire")
	}
	e.Eval(Input{Step: 10, HasPredictor: true, FallbackEntries: 0})
	if g := o.Reg.Gauge("alert_active", rl); g.Value() != 0 {
		t.Fatal("alert_active not cleared on resolve")
	}
	var names []string
	for _, ev := range sink.Events() {
		names = append(names, ev.Name)
	}
	if strings.Join(names, ",") != obs.MetaT0+",alert,alert/resolved" {
		t.Fatalf("trace events = %v", names)
	}
}

func TestEngineStatusConcurrentWithEval(t *testing.T) {
	rules, _ := ParseRules("steptime>2;fallback_entries:for=2")
	e := NewEngine(Config{Rules: rules})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				e.Eval(Input{Step: i, StepSeconds: 1, HasPredictor: true, FallbackEntries: float64(i % 3)})
			}
		}
	}()
	for i := 0; i < 100; i++ {
		e.Status()
		e.ActiveCount()
	}
	close(stop)
	wg.Wait()
}

func TestNilEngineIsInert(t *testing.T) {
	var e *Engine
	if f := e.Eval(Input{Step: 1}); f != nil {
		t.Fatal("nil engine fired")
	}
	if st := e.Status(); st.StepsEvaluated != 0 || len(st.Rules) != 0 {
		t.Fatal("nil engine status not zero")
	}
	if total, crit := e.ActiveCount(); total != 0 || crit != 0 {
		t.Fatal("nil engine active count not zero")
	}
	if e.Rules() != nil {
		t.Fatal("nil engine rules not nil")
	}
}

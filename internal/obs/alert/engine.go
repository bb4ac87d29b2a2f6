package alert

import (
	"fmt"
	"sync"

	"beamdyn/internal/obs"
)

// Input is one step's signal snapshot, assembled by core.Simulation (and
// by tests) and handed to Engine.Eval. The Has* flags say which signal
// groups carry data this run; rules over absent signals never fire.
type Input struct {
	// Step is the simulation step just executed.
	Step int
	// StepSeconds is the step's host wall time.
	StepSeconds float64

	// HasPredictor gates the predictor-quality signals.
	HasPredictor    bool
	FallbackRate    float64
	FallbackEntries float64
	ErrMean         float64
	ErrP90          float64
	ErrMax          float64

	// HasPhysics gates the invariant-drift signals.
	HasPhysics  bool
	ChargeDrift float64
	MomentDrift float64
}

// value resolves a signal name against the input; ok is false when the
// signal's group carries no data this step.
func (in Input) value(signal string) (v float64, ok bool) {
	switch signal {
	case SigStepTime:
		return in.StepSeconds, true
	case SigFallbackRate:
		return in.FallbackRate, in.HasPredictor
	case SigFallbackEntries:
		return in.FallbackEntries, in.HasPredictor
	case SigErrMean:
		return in.ErrMean, in.HasPredictor
	case SigErrP90:
		return in.ErrP90, in.HasPredictor
	case SigErrMax:
		return in.ErrMax, in.HasPredictor
	case SigChargeDrift:
		return in.ChargeDrift, in.HasPhysics
	case SigMomentDrift:
		return in.MomentDrift, in.HasPhysics
	}
	return 0, false
}

// Alert is one firing recorded in the engine's log. While the condition
// still holds the alert is Active; when it stops, ResolvedStep records the
// step that cleared it.
type Alert struct {
	// Rule is the canonical rule rendering (Rule.Name).
	Rule string `json:"rule"`
	// Signal is the watched signal.
	Signal string `json:"signal"`
	// Severity is "warning" or "critical".
	Severity string `json:"severity"`
	// Step is the step the alert fired at.
	Step int `json:"step"`
	// Value is the signal value that fired the alert; Threshold the
	// rule's threshold.
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	// Message is the human-readable one-liner.
	Message string `json:"message"`
	// Active reports whether the condition still held at the last Eval.
	Active bool `json:"active"`
	// ResolvedStep is the step the condition cleared (only when !Active).
	ResolvedStep int `json:"resolved_step,omitempty"`
}

// Config configures an Engine.
type Config struct {
	// Rules is the parsed rule set.
	Rules []Rule
	// Obs, when non-nil, receives the engine's telemetry: an
	// alerts_fired_total{rule,severity} counter and alert_active{rule}
	// gauge per rule, plus "alert"/"alert/resolved" trace events.
	Obs *obs.Observer
	// OnAlert, when non-nil, is called synchronously with each firing —
	// beamsim hooks post-mortem bundle dumping and the console line here.
	OnAlert func(Alert)
}

// Engine evaluates a rule set against per-step Inputs. Eval is called
// from the simulation loop; Status may be called concurrently (the
// /alerts endpoint).
type Engine struct {
	cfg Config

	mu     sync.Mutex
	states []ruleState
	log    []Alert
	steps  int
}

// ruleState is one rule's evaluation state.
type ruleState struct {
	// run counts consecutive steps the condition has held.
	run int
	// active indexes the rule's open alert in the log (-1 when clear).
	active int
}

// NewEngine builds an engine over cfg.Rules.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg, states: make([]ruleState, len(cfg.Rules))}
	for i := range e.states {
		e.states[i].active = -1
	}
	// Pre-register the per-rule series so the snapshot table lists every
	// rule from step one, firing or not.
	if cfg.Obs != nil && cfg.Obs.Reg != nil {
		for _, r := range cfg.Rules {
			cfg.Obs.Reg.Gauge("alert_active", obs.Label{Key: "rule", Value: r.Name()}).Set(0)
		}
	}
	return e
}

// Rules returns the engine's rule set.
func (e *Engine) Rules() []Rule {
	if e == nil {
		return nil
	}
	return e.cfg.Rules
}

// Eval evaluates every rule against one step's input and returns the
// alerts that fired on this step (not those merely still active). A nil
// engine evaluates nothing.
func (e *Engine) Eval(in Input) []Alert {
	if e == nil {
		return nil
	}
	var fired []Alert
	e.mu.Lock()
	e.steps++
	for i := range e.cfg.Rules {
		r := &e.cfg.Rules[i]
		st := &e.states[i]
		v, ok := in.value(r.Signal)
		cond := ok && r.compare(v)
		if cond {
			st.run++
		} else {
			st.run = 0
		}
		switch {
		case cond && st.active < 0 && st.run >= r.For:
			a := Alert{
				Rule:      r.Name(),
				Signal:    r.Signal,
				Severity:  r.Severity.String(),
				Step:      in.Step,
				Value:     v,
				Threshold: r.Threshold,
				Active:    true,
				Message: fmt.Sprintf("%s: %s=%.4g breached %.4g for %d step(s)",
					r.Name(), r.Signal, v, r.Threshold, r.For),
			}
			st.active = len(e.log)
			e.log = append(e.log, a)
			fired = append(fired, a)
		case !cond && st.active >= 0:
			e.log[st.active].Active = false
			e.log[st.active].ResolvedStep = in.Step
			e.emitResolved(e.log[st.active], in.Step)
			st.active = -1
		}
	}
	e.mu.Unlock()
	for _, a := range fired {
		e.emitFired(a)
		if e.cfg.OnAlert != nil {
			e.cfg.OnAlert(a)
		}
	}
	return fired
}

func (e *Engine) emitFired(a Alert) {
	o := e.cfg.Obs
	if o == nil {
		return
	}
	if o.Reg != nil {
		rl := obs.Label{Key: "rule", Value: a.Rule}
		o.Reg.Counter("alerts_fired_total", rl, obs.Label{Key: "severity", Value: a.Severity}).Inc()
		o.Reg.Gauge("alert_active", rl).Set(1)
	}
	o.Event("alert", a.Step,
		obs.S("rule", a.Rule), obs.S("severity", a.Severity),
		obs.F("value", a.Value), obs.F("threshold", a.Threshold))
}

func (e *Engine) emitResolved(a Alert, step int) {
	o := e.cfg.Obs
	if o == nil {
		return
	}
	if o.Reg != nil {
		o.Reg.Gauge("alert_active", obs.Label{Key: "rule", Value: a.Rule}).Set(0)
	}
	o.Event("alert/resolved", step,
		obs.S("rule", a.Rule), obs.S("severity", a.Severity),
		obs.I("fired_step", a.Step))
}

// Status is the engine's queryable state: the /alerts endpoint body and
// the alerts.json member of a post-mortem bundle.
type Status struct {
	// Rules lists the canonical rule renderings.
	Rules []string `json:"rules"`
	// StepsEvaluated counts Eval calls.
	StepsEvaluated int `json:"steps_evaluated"`
	// Active holds the currently-firing alerts; Log the full firing
	// history (resolved entries included), oldest first.
	Active []Alert `json:"active,omitempty"`
	Log    []Alert `json:"log,omitempty"`
}

// Status returns a copy of the engine's state. Safe for concurrent use
// with Eval; a nil engine returns the zero Status.
func (e *Engine) Status() Status {
	var s Status
	if e == nil {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.cfg.Rules {
		s.Rules = append(s.Rules, r.Name())
	}
	s.StepsEvaluated = e.steps
	s.Log = append([]Alert(nil), e.log...)
	for _, a := range s.Log {
		if a.Active {
			s.Active = append(s.Active, a)
		}
	}
	return s
}

// ActiveCount returns how many alerts are currently firing, and how many
// of those are critical. The /healthz handler folds this into "degraded".
func (e *Engine) ActiveCount() (total, critical int) {
	if e == nil {
		return 0, 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, a := range e.log {
		if a.Active {
			total++
			if a.Severity == Critical.String() {
				critical++
			}
		}
	}
	return total, critical
}

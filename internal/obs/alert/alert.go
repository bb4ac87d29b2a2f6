// Package alert is the in-process alert engine of the observability
// stack: a per-step rule evaluator over the run's live telemetry — step
// wall time, predictor quality, and the physics invariants (charge/moment
// drift) the core computes from diagnostics.Analyze — with a parseable
// rule grammar:
//
//	rules := rule (";" rule)*
//	rule  := signal [op number] [":" opt ("," opt)*]
//	op    := ">" | ">=" | "<" | "<="
//	opt   := "for=" int | "sev=" ("warn" | "crit")
//
// A rule without an explicit comparison fires when the signal is positive
// (e.g. "fallback_entries:for=3"). "for=N" requires the condition to hold for
// N consecutive steps before the alert fires; "sev=" picks the severity
// (critical by default — critical alerts are what trigger post-mortem
// bundles). A threshold may not be NaN.
//
// The paper's bet is a learned predictor inside the simulation loop, which
// makes forecast accuracy and fallback behaviour runtime properties: this
// package is what notices, at step k, that the surrogate has gone sick —
// the continuous surrogate-vs-reference watching that Aguilar & Markidis
// and Sandberg et al. argue learned solvers need in production.
package alert

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Severity classifies an alert. Critical alerts trigger post-mortem
// bundles; warnings only surface through metrics, trace and /alerts.
type Severity int

// The severities, mildest first.
const (
	Warning Severity = iota
	Critical
)

// String returns the severity's name.
func (s Severity) String() string {
	switch s {
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Op is a rule's comparison operator.
type Op int

// The comparison operators; OpNone marks a bare rule.
const (
	OpNone Op = iota
	OpGT
	OpGE
	OpLT
	OpLE
)

// String returns the operator's grammar spelling.
func (o Op) String() string {
	switch o {
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	}
	return ""
}

// The signals a rule can watch. Which signals carry data each step depends
// on the run: predictor signals need a simulated-GPU kernel, physics
// signals a particle ensemble.
const (
	// SigFallbackRate is the predicted-phase fallback rate (entries per
	// grid point) of the step's kernel run.
	SigFallbackRate = "fallback_rate"
	// SigFallbackEntries is the absolute fallback entry count.
	SigFallbackEntries = "fallback_entries"
	// SigErrMean, SigErrP90 and SigErrMax are the step's forecast-error
	// statistics (pattern distance, in panels).
	SigErrMean = "err_mean"
	SigErrP90  = "err_p90"
	SigErrMax  = "err_max"
	// SigStepTime is the step's host wall time in seconds, for fixed
	// thresholds such as "steptime>2".
	SigStepTime = "steptime"
	// SigChargeDrift is the relative drift of the ensemble's total charge
	// from its baseline (first evaluated step); SigMomentDrift the larger
	// of the two RMS-size relative drifts. Charge is conserved exactly by
	// the deposit step, so any drift is a corruption signal.
	SigChargeDrift = "charge_drift"
	SigMomentDrift = "moment_drift"
)

// knownSignals guards the grammar against typos.
var knownSignals = map[string]bool{
	SigFallbackRate:    true,
	SigFallbackEntries: true,
	SigErrMean:         true,
	SigErrP90:          true,
	SigErrMax:          true,
	SigStepTime:        true,
	SigChargeDrift:     true,
	SigMomentDrift:     true,
}

// DefaultRules is the stock rule set beamsim's "-alerts default" selects:
// a sustained fallback-rate breach (the surrogate has stopped predicting
// the access patterns) and charge-conservation drift.
const DefaultRules = "fallback_rate>0.25:for=3;charge_drift>0.01:for=2"

// Rule is one parsed alert rule.
type Rule struct {
	// Signal names the watched series (one of the Sig* constants).
	Signal string
	// Op and Threshold form the condition; OpNone means "signal > 0".
	Op        Op
	Threshold float64
	// For is the number of consecutive steps the condition must hold
	// before the alert fires (>= 1).
	For int
	// Severity is Critical unless the rule says sev=warn.
	Severity Severity
}

// Name renders the rule canonically in the grammar; it is the rule's
// identity in metrics labels, trace events and the alert log.
func (r Rule) Name() string {
	var b strings.Builder
	b.WriteString(r.Signal)
	if r.Op != OpNone {
		fmt.Fprintf(&b, "%s%g", r.Op, r.Threshold)
	}
	var opts []string
	if r.For > 1 {
		opts = append(opts, fmt.Sprintf("for=%d", r.For))
	}
	if r.Severity == Warning {
		opts = append(opts, "sev=warn")
	}
	if len(opts) > 0 {
		b.WriteByte(':')
		b.WriteString(strings.Join(opts, ","))
	}
	return b.String()
}

// ParseRules parses a ";"-separated rule script, e.g.
//
//	fallback_rate>0.2:for=5;steptime>2;fallback_entries:for=3
func ParseRules(s string) ([]Rule, error) {
	var out []Rule
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("alert: empty rule script %q", s)
	}
	return out, nil
}

func parseRule(s string) (Rule, error) {
	r := Rule{For: 1, Severity: Critical}
	cond, opts, hasOpts := strings.Cut(s, ":")

	// Condition: signal, optionally followed by an operator and number.
	// Two-character operators first so ">=" does not parse as ">" + "=".
	opAt := strings.IndexAny(cond, "<>")
	if opAt < 0 {
		r.Signal = strings.TrimSpace(cond)
	} else {
		r.Signal = strings.TrimSpace(cond[:opAt])
		rest := cond[opAt:]
		switch {
		case strings.HasPrefix(rest, ">="):
			r.Op, rest = OpGE, rest[2:]
		case strings.HasPrefix(rest, "<="):
			r.Op, rest = OpLE, rest[2:]
		case strings.HasPrefix(rest, ">"):
			r.Op, rest = OpGT, rest[1:]
		case strings.HasPrefix(rest, "<"):
			r.Op, rest = OpLT, rest[1:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil || math.IsNaN(v) {
			return Rule{}, fmt.Errorf("alert: rule %q: bad threshold %q", s, rest)
		}
		r.Threshold = v
	}
	if r.Signal == "" {
		return Rule{}, fmt.Errorf("alert: rule %q: missing signal", s)
	}
	if !knownSignals[r.Signal] {
		return Rule{}, fmt.Errorf("alert: rule %q: unknown signal %q", s, r.Signal)
	}

	if hasOpts {
		for _, opt := range strings.Split(opts, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(opt), "=")
			if !ok {
				return Rule{}, fmt.Errorf("alert: rule %q: option %q is not key=value", s, opt)
			}
			switch key {
			case "for":
				n, err := strconv.Atoi(val)
				if err != nil || n < 1 {
					return Rule{}, fmt.Errorf("alert: rule %q: for= wants a positive integer, got %q", s, val)
				}
				r.For = n
			case "sev":
				switch val {
				case "warn", "warning":
					r.Severity = Warning
				case "crit", "critical":
					r.Severity = Critical
				default:
					return Rule{}, fmt.Errorf("alert: rule %q: sev= wants warn|crit, got %q", s, val)
				}
			default:
				return Rule{}, fmt.Errorf("alert: rule %q: unknown option %q", s, key)
			}
		}
	}
	return r, nil
}

// compare evaluates the rule's condition (bare rules fire on positive
// values).
func (r Rule) compare(v float64) bool {
	switch r.Op {
	case OpGT:
		return v > r.Threshold
	case OpGE:
		return v >= r.Threshold
	case OpLT:
		return v < r.Threshold
	case OpLE:
		return v <= r.Threshold
	}
	return v > 0
}

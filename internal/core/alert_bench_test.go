package core

import (
	"slices"
	"testing"
	"time"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
	"beamdyn/internal/obs/flight"
)

// obsWindow is the number of steps each arm of BenchmarkObsOverhead
// advances per iteration: about 10 ms of ~1 ms steps, long enough that a
// window's time averages over the step's own jitter.
const obsWindow = 10

// BenchmarkObsOverhead bounds the telemetry overhead of a full step.
// Three identical simulations (testConfig at N = 5000 on the host
// reference, a ~1 ms step) advance side by side:
//
//   - bare: no observer, no alert engine (the production path);
//   - incident: flight recorder, default alert rules and the
//     physics-invariant gauges;
//   - traceids: the flight recorder behind a scoped observer, so every
//     span carries trace, span and parent IDs plus baggage (the path every
//     control-plane job runs on).
//
// Every iteration times one obsWindow-step window of each arm, in an order
// reversed on every iteration, so host drift and cache warmth fall on both
// sides of each comparison. It reports the median over iterations of each
// instrumented window's time over the same iteration's bare window:
// incident/bare and traceids/bare. The budget is 5% (make bench-obs).
func BenchmarkObsOverhead(b *testing.B) {
	cfg := testConfig()
	cfg.Beam.NumParticles = 5000
	bare := New(cfg)

	incident := New(cfg)
	o := obs.New()
	o.Trace = obs.NewTracer(flight.New(flight.DefaultDepth, nil))
	incident.Obs = o
	rules, err := alert.ParseRules(alert.DefaultRules)
	if err != nil {
		b.Fatal(err)
	}
	incident.Alerts = alert.NewEngine(alert.Config{Rules: rules, Obs: o})

	traced := New(cfg)
	to := obs.New()
	to.Trace = obs.NewTracer(flight.New(flight.DefaultDepth, nil))
	traced.Obs = to.StartTrace(obs.S("job", "bench"), obs.S("node", "bench-node"))

	arms := []*Simulation{bare, incident, traced}
	for _, s := range arms {
		s.Warmup()
	}
	window := func(s *Simulation) float64 {
		t0 := time.Now()
		for i := 0; i < obsWindow; i++ {
			s.Advance()
		}
		return float64(time.Since(t0))
	}
	var incRatio, traceRatio []float64
	var ns [3]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range arms {
			if i%2 == 1 {
				k = len(arms) - 1 - k
			}
			ns[k] = window(arms[k])
		}
		incRatio = append(incRatio, ns[1]/ns[0])
		traceRatio = append(traceRatio, ns[2]/ns[0])
	}
	b.ReportMetric(median(incRatio), "incident/bare")
	b.ReportMetric(median(traceRatio), "traceids/bare")
}

// median returns the median of vs (sorting it in place).
func median(vs []float64) float64 {
	slices.Sort(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

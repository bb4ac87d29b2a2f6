package analysis

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"beamdyn/internal/obs"
)

// span makes a span event with the given duration, as the tracer would
// emit it (timestamped at End).
func span(name string, step int, dur float64) obs.Event {
	return obs.Event{TS: float64(step) + dur, Name: name, Kind: "span", Step: step, Dur: dur}
}

func TestReadTraceRoundTripsTracerOutput(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	o := &obs.Observer{Trace: obs.NewTracer(sink)}
	o.Span("advance/deposit", 1).End()
	o.Event("predictor", 1, obs.F("fallback_rate", 0.25), obs.S("kernel", "Predictive-RP"))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3 (t0 header + span + event)", len(events))
	}
	if events[0].Name != obs.MetaT0 || events[0].Kind != "meta" {
		t.Fatalf("t0 header wrong: %+v", events[0])
	}
	events = events[1:]
	if events[0].Name != "advance/deposit" || events[0].Kind != "span" {
		t.Fatalf("span wrong: %+v", events[0])
	}
	if v, ok := attrFloat(events[1], "fallback_rate"); !ok || v != 0.25 {
		t.Fatalf("attrFloat = %v, %v", v, ok)
	}
	if s, ok := attrString(events[1], "kernel"); !ok || s != "Predictive-RP" {
		t.Fatalf("attrString = %v, %v", s, ok)
	}
}

func TestReadTraceRejectsCorruptLine(t *testing.T) {
	in := "{\"name\":\"a\",\"kind\":\"span\"}\n\n{truncated"
	if _, err := ReadTrace(strings.NewReader(in)); err == nil {
		t.Fatal("corrupt trace parsed without error")
	} else if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

func TestAggregateStats(t *testing.T) {
	var events []obs.Event
	// 100 spans of 1..100ms: mean 50.5ms, p50 50ms, p99 99ms.
	for i := 1; i <= 100; i++ {
		events = append(events, span("predictive/predict", i, float64(i)*1e-3))
	}
	events = append(events, span("predictive/train", 1, 0.2))
	events = append(events, obs.Event{Name: "predictor", Kind: "event", Step: 1}) // ignored
	stats := Aggregate(events)
	if len(stats) != 2 {
		t.Fatalf("stats = %d series, want 2", len(stats))
	}
	// Sorted by name.
	if stats[0].Name != "predictive/predict" || stats[1].Name != "predictive/train" {
		t.Fatalf("order wrong: %s, %s", stats[0].Name, stats[1].Name)
	}
	p := stats[0]
	if p.Count != 100 {
		t.Fatalf("count = %d", p.Count)
	}
	if math.Abs(p.Mean()-0.0505) > 1e-9 {
		t.Fatalf("mean = %g, want 0.0505", p.Mean())
	}
	if p.MinSec != 1e-3 || p.MaxSec != 0.1 {
		t.Fatalf("min/max = %g/%g", p.MinSec, p.MaxSec)
	}
	// Exact nearest-rank quantiles: the observed durations themselves.
	for _, tc := range []struct{ q, exact float64 }{{0.5, 0.050}, {0.95, 0.095}, {0.99, 0.099}, {1, 0.1}} {
		if got := p.Quantile(tc.q); got != tc.exact {
			t.Errorf("Quantile(%g) = %g, want exactly %g", tc.q, got, tc.exact)
		}
	}
	out := SummaryTable(stats)
	for _, want := range []string{"predictive/predict", "p95_ms", "p99_ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary table missing %q:\n%s", want, out)
		}
	}
}

func fleetEvent(step, dev int, busy, util float64) obs.Event {
	return obs.Event{Name: "fleet/device", Kind: "event", Step: step, Attrs: map[string]any{
		"device": float64(dev), "busy_sim_sec": busy, "utilization": util,
	}}
}

func TestFleetStats(t *testing.T) {
	events := []obs.Event{
		{Name: "fleet/step", Kind: "span", Step: 1, Dur: 0.1,
			Attrs: map[string]any{"bands": 8.0}},
		{Name: "fleet/step", Kind: "span", Step: 2, Dur: 0.1,
			Attrs: map[string]any{"bands": 8.0}},
		fleetEvent(1, 0, 1.0, 1.0),
		fleetEvent(2, 0, 1.0, 1.0),
		fleetEvent(1, 1, 0.5, 0.5),
		fleetEvent(2, 1, 0.0, 0.0),
	}
	rep := FleetStats(events)
	if rep.Steps != 2 || rep.Bands != 16 {
		t.Fatalf("totals wrong: %+v", rep)
	}
	if len(rep.Devices) != 2 {
		t.Fatalf("devices = %d", len(rep.Devices))
	}
	d0, d1 := rep.Devices[0], rep.Devices[1]
	if d0.BusySec != 2 || d0.Utilization != 1 || d0.Steps != 2 {
		t.Fatalf("dev0 wrong: %+v", d0)
	}
	if d1.BusySec != 0.5 || d1.Utilization != 0.25 || d1.Steps != 2 {
		t.Fatalf("dev1 wrong: %+v", d1)
	}
	out := rep.Table()
	for _, want := range []string{"bands=16", "dev0", "dev1", "25%"} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet table missing %q:\n%s", want, out)
		}
	}
}

func predictorEvent(step int, rate float64) obs.Event {
	return obs.Event{Name: "predictor", Kind: "event", Step: step, Attrs: map[string]any{
		"kernel": "Predictive-RP", "fallback_rate": rate,
		"err_mean": 0.1, "err_p90": 0.3, "train_sec": 0.002,
	}}
}

func TestFallbackSpikeDetection(t *testing.T) {
	var events []obs.Event
	for s := 1; s <= 20; s++ {
		rate := 0.002
		if s == 13 {
			rate = 0.5 // the bunch drifted: the safety net floods
		}
		events = append(events, predictorEvent(s, rate))
	}
	points := PredictorSeries(events)
	if len(points) != 20 || points[0].Step != 1 || points[0].Kernel != "Predictive-RP" {
		t.Fatalf("series wrong: %d points, first %+v", len(points), points[0])
	}
	spikes := FallbackSpikes(points, 3, 0.001)
	if len(spikes) != 1 || spikes[0].Step != 13 || spikes[0].Rate != 0.5 {
		t.Fatalf("spikes = %+v, want the step-13 flood", spikes)
	}
	// The absolute floor mutes noise on an otherwise-perfect forecast.
	quiet := []PredictorPoint{{Step: 1, FallbackRate: 0}, {Step: 2, FallbackRate: 0.0001}}
	if got := FallbackSpikes(quiet, 3, 0.001); got != nil {
		t.Fatalf("sub-floor rates flagged: %+v", got)
	}
	// Zero median: anything at or above the floor is a spike.
	zeroMedian := []PredictorPoint{{Step: 1}, {Step: 2}, {Step: 3, FallbackRate: 0.01}}
	if got := FallbackSpikes(zeroMedian, 3, 0.001); len(got) != 1 || got[0].Step != 3 {
		t.Fatalf("zero-median spike missed: %+v", got)
	}
	out := PredictorTable(points, spikes)
	if !strings.Contains(out, "fallback spike") || !strings.Contains(out, "1 spike(s)") {
		t.Fatalf("predictor table missing spike marker:\n%s", out)
	}
}

func TestDiffFindsRegressions(t *testing.T) {
	var oldE, newE []obs.Event
	for i := 0; i < 10; i++ {
		oldE = append(oldE, span("predictive/predict", i, 0.010))
		newE = append(newE, span("predictive/predict", i, 0.015)) // +50%
		oldE = append(oldE, span("advance/push", i, 0.001))
		newE = append(newE, span("advance/push", i, 0.001))
		oldE = append(oldE, span("old/only", i, 0.002))
		newE = append(newE, span("new/only", i, 0.002))
	}
	rows := Diff(oldE, newE)
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// Sorted by descending delta: new-only (+Inf) first, gone last.
	if rows[0].Name != "new/only" || rows[len(rows)-1].Name != "old/only" {
		t.Fatalf("sort wrong: first=%s last=%s", rows[0].Name, rows[len(rows)-1].Name)
	}
	regs := Regressions(rows, 0.10)
	if len(regs) != 1 || regs[0].Name != "predictive/predict" {
		t.Fatalf("regressions = %+v", regs)
	}
	if math.Abs(regs[0].MeanDelta-0.5) > 1e-9 {
		t.Fatalf("delta = %g, want 0.5", regs[0].MeanDelta)
	}
	// Structural changes never gate.
	for _, r := range rows {
		if (r.Name == "new/only" || r.Name == "old/only") && r.Regressed(0.10) {
			t.Fatalf("%s counted as regression", r.Name)
		}
	}
	if regs := Regressions(rows, 0.60); len(regs) != 0 {
		t.Fatalf("60%% threshold still flags: %+v", regs)
	}
	out := DiffTable(rows)
	for _, want := range []string{"new", "gone", "+50.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff table missing %q:\n%s", want, out)
		}
	}
}

package fleet

import (
	"testing"

	"beamdyn/internal/grid"
	"beamdyn/internal/obs"
	"beamdyn/internal/obs/flight"
)

func TestFleetHealthReportsStatesAndUtilization(t *testing.T) {
	mgr := NewFixed(testDevices(3))
	mgr.SetState(1, Degraded, "thermal throttling")
	mgr.SetSlowdown(1, 2)
	mgr.SetState(2, Draining, "maintenance")
	fl := newStubFleet(mgr, 6, func(id int) *stubAlgo { return &stubAlgo{} })

	// Before any step: states are live, load figures are zero.
	h := fl.Health()
	if len(h) != 3 {
		t.Fatalf("health records = %d, want 3", len(h))
	}
	if h[0].State != "healthy" || h[1].State != "degraded" || h[2].State != "draining" {
		t.Fatalf("states = %s/%s/%s", h[0].State, h[1].State, h[2].State)
	}
	if h[1].Slowdown != 2 {
		t.Fatalf("slowdown = %g, want 2", h[1].Slowdown)
	}
	if h[0].BusySec != 0 || h[0].Utilization != 0 {
		t.Fatalf("pre-step load nonzero: %+v", h[0])
	}

	target := grid.New(4, 12, 1, 0, 0, 1, 1)
	fl.Step(nil, target, 0)

	h = fl.Health()
	var busiest float64
	for _, d := range h {
		if d.Device >= 0 && d.BusySec > busiest {
			busiest = d.BusySec
		}
	}
	if busiest == 0 {
		t.Fatal("no device reported busy time after a step")
	}
	for _, d := range h {
		if d.BusySec == busiest && d.Utilization != 1 {
			t.Fatalf("busiest device utilization = %g, want 1", d.Utilization)
		}
		if d.Utilization < 0 || d.Utilization > 1 {
			t.Fatalf("utilization out of range: %+v", d)
		}
	}
	// The draining device took no work.
	if h[2].BusySec != 0 {
		t.Fatalf("draining device busy = %g, want 0", h[2].BusySec)
	}
	if h[0].Label == "" {
		t.Fatal("device label empty")
	}
}

func TestFleetEmitsPerDeviceTraceEvents(t *testing.T) {
	sink := flight.New(0, nil)
	o := &obs.Observer{Trace: obs.NewTracer(sink), Reg: obs.NewRegistry()}
	fl := newStubFleet(NewFixed(testDevices(2)), 4, func(id int) *stubAlgo { return &stubAlgo{} })
	fl.SetObserver(o)

	target := grid.New(4, 8, 1, 0, 0, 1, 1)
	target.Step = 9
	fl.Step(nil, target, 0)

	var devEvents int
	for _, e := range sink.Events() {
		if e.Name != "fleet/device" {
			continue
		}
		devEvents++
		if e.Step != 9 || e.Kind != "event" {
			t.Fatalf("fleet/device event wrong: %+v", e)
		}
		for _, key := range []string{"device", "state", "slowdown", "busy_sim_sec", "utilization"} {
			if _, ok := e.Attrs[key]; !ok {
				t.Fatalf("fleet/device event missing %q: %+v", key, e.Attrs)
			}
		}
		if e.Attrs["state"] != "healthy" {
			t.Fatalf("state attr = %v", e.Attrs["state"])
		}
	}
	if devEvents != 2 {
		t.Fatalf("fleet/device events = %d, want one per device", devEvents)
	}
}

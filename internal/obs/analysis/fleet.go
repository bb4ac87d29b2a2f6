package analysis

import (
	"fmt"
	"sort"
	"strings"

	"beamdyn/internal/obs"
)

// FleetDevice aggregates one device's behaviour over a traced run, from
// the per-step "fleet/device" events the scheduler emits.
type FleetDevice struct {
	Device      int
	BusySec     float64 // total simulated busy time
	Utilization float64 // mean per-step utilization
	Steps       int     // steps the device appears in
}

// FleetReport summarises a traced fleet run.
type FleetReport struct {
	// Steps is the number of fleet/step spans.
	Steps int
	// Bands totals the bands dispatched across the run, from the
	// fleet/step span attributes.
	Bands int
	// Devices is the per-device aggregation, ordered by device index.
	Devices []FleetDevice
}

// FleetStats reconstructs the fleet scheduler's behaviour from a trace.
// A trace without fleet events yields a zero report.
func FleetStats(events []obs.Event) FleetReport {
	var rep FleetReport
	byDev := make(map[int]*FleetDevice)
	for _, e := range events {
		switch e.Name {
		case "fleet/step":
			if e.Kind != "span" {
				continue
			}
			rep.Steps++
			if v, ok := attrFloat(e, "bands"); ok {
				rep.Bands += int(v)
			}
		case "fleet/device":
			id, ok := attrFloat(e, "device")
			if !ok {
				continue
			}
			d := byDev[int(id)]
			if d == nil {
				d = &FleetDevice{Device: int(id)}
				byDev[int(id)] = d
			}
			d.Steps++
			if v, ok := attrFloat(e, "busy_sim_sec"); ok {
				d.BusySec += v
			}
			if v, ok := attrFloat(e, "utilization"); ok {
				d.Utilization += v
			}
		}
	}
	for _, d := range byDev {
		if d.Steps > 0 {
			d.Utilization /= float64(d.Steps)
		}
		rep.Devices = append(rep.Devices, *d)
	}
	sort.Slice(rep.Devices, func(i, j int) bool { return rep.Devices[i].Device < rep.Devices[j].Device })
	return rep
}

// Table renders the report for the obstool fleet subcommand.
func (r FleetReport) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: steps=%d bands=%d\n", r.Steps, r.Bands)
	if len(r.Devices) == 0 {
		b.WriteString("no fleet/device events in trace (run beamsim with -devices N -trace)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-8s %12s %10s\n", "device", "busy_sim_s", "mean_util")
	for _, d := range r.Devices {
		fmt.Fprintf(&b, "dev%-5d %12.4f %9.0f%%\n", d.Device, d.BusySec, 100*d.Utilization)
	}
	return b.String()
}

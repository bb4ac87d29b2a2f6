// Fleet fault tolerance: run the Two-Phase-RP kernel across four managed
// simulated K40s while a health-event script kills one device mid-step and
// degrades another, and show the fleet absorbing both — the failed
// device's bands are re-placed on survivors, the degraded device is given
// less work, and the step still completes with the same potentials. Every
// run prints the same table: placement depends only on band rows and
// device slowdowns.
package main

import (
	"fmt"
	"log"

	"beamdyn"
	"beamdyn/internal/fleet"
	"beamdyn/internal/gpusim"
)

func main() {
	cfg := beamdyn.DefaultConfig()
	cfg.Beam.NumParticles = 20000
	cfg.NX, cfg.NY = 32, 32

	// One device fails during its second band of step 11; another runs 3x
	// slow from step 10 until it recovers at step 12. (Warm-up fills the
	// retardation history through step 8, so the post-warm-up steps this
	// example advances are 9-12.)
	const script = "fail:dev=1,step=11,after=2;slow:dev=2,step=10,factor=3,until=12"
	events, err := fleet.ParseEvents(script)
	if err != nil {
		log.Fatal(err)
	}

	devs := make([]*gpusim.Device, 4)
	for d := range devs {
		devs[d] = beamdyn.NewDevice(beamdyn.KeplerK40())
		devs[d].SetLabel(fmt.Sprintf("dev%d", d))
	}
	mgr := fleet.NewInjectable(devs, events)
	fl := fleet.New(fleet.Config{
		Manager: mgr,
		MakeKernel: func(id int, dev *gpusim.Device) beamdyn.Algorithm {
			return beamdyn.NewKernelOn(beamdyn.TwoPhaseRP, dev)
		},
		// 16 bands, four per device, so device 1 has a second band for
		// its after=2 failure to fire in.
		Bands: 16,
	})

	sim := beamdyn.New(cfg)
	sim.Algo = fl
	sim.Warmup()

	fmt.Printf("injected events: %s\n\n", script)
	fmt.Printf("%5s %12s %6s %8s  %s\n",
		"step", "gpu time", "bands", "retried", "device states")
	for i := 0; i < 4; i++ {
		step := sim.Advance()
		st := fl.LastStats()
		states := ""
		for d := 0; d < mgr.NumDevices(); d++ {
			states += fmt.Sprintf("%s=%s ", mgr.Device(d).Label(), mgr.State(d))
		}
		fmt.Printf("%5d %12.4g %6d %8d  %s\n",
			step, sim.Last.Metrics.Time, st.Bands, st.Retried, states)
	}

	fmt.Println("\nstate transitions:")
	for _, tr := range mgr.Transitions() {
		fmt.Printf("  step %3d: dev%d %s -> %s (%s)\n",
			tr.Step, tr.Device, tr.From, tr.To, tr.Reason)
	}
}

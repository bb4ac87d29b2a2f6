// LCLS-bend validation scenario (the paper's Figure 2 setting): a rigid
// Gaussian bunch on the LCLS bend, with the collective force computed from
// a Monte-Carlo-sampled bunch compared against the continuum (noiseless)
// reference along the bunch axis.
package main

import (
	"fmt"
	"math"

	"beamdyn"
)

func main() {
	cfg := beamdyn.DefaultConfig()
	cfg.Beam.NumParticles = 100000
	cfg.NX, cfg.NY = 64, 64

	// The sampled pipeline: deposit N particles, compute retarded
	// potentials, interpolate self-forces.
	sampled := beamdyn.New(cfg)

	// The continuum pipeline is the exact (N -> infinity) reference, the
	// role played by the analytic 1-D rigid-bunch solution in the paper.
	ccfg := cfg
	ccfg.Continuum = true
	reference := beamdyn.New(ccfg)

	for _, sim := range []*beamdyn.Simulation{sampled, reference} {
		sim.Warmup()
		sim.Advance()
	}

	fmt.Println("longitudinal collective force along the bunch axis")
	fmt.Printf("%12s %14s %14s %10s\n", "y/sigma", "computed", "reference", "rel.err")
	scx, scy := sampled.Center()
	rcx, rcy := reference.Center()
	var peak float64
	for i := -30; i <= 30; i += 2 {
		dy := float64(i) / 10 * cfg.Beam.SigmaY
		if f := math.Abs(reference.ForceAt(rcx, rcy+dy).AY); f > peak {
			peak = f
		}
	}
	var worst float64
	for i := -30; i <= 30; i += 2 {
		dy := float64(i) / 10 * cfg.Beam.SigmaY
		got := sampled.ForceAt(scx, scy+dy).AY
		want := reference.ForceAt(rcx, rcy+dy).AY
		rel := math.Abs(got-want) / peak
		if rel > worst {
			worst = rel
		}
		fmt.Printf("%12.1f %14.5g %14.5g %9.2f%%\n", float64(i)/10, got, want, 100*rel)
	}
	fmt.Printf("\nworst deviation: %.2f%% of the force peak (Monte-Carlo noise at N=%d)\n",
		100*worst, cfg.Beam.NumParticles)
}

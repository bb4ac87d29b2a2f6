// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): the validation figures (Fig. 2, Fig. 3), the
// kernel-metric comparison (Table I), the roofline chart (Fig. 4) and the
// timing/speedup table (Table II), plus the ablation studies DESIGN.md
// calls out. Each experiment returns a typed result with a textual
// rendering, so cmd/benchtables, cmd/validate and the benchmarks share one
// implementation.
package experiments

import (
	"fmt"
	"strings"

	"beamdyn/internal/core"
	"beamdyn/internal/gpusim"
	"beamdyn/internal/kernels"
	"beamdyn/internal/phys"
)

// Scale reduces experiment sizes for environments where the full paper
// configurations are too slow (the simulator traces every memory access of
// every simulated thread, so a 256x256 grid costs minutes of host time per
// kernel).
type Scale int

const (
	// Full runs the paper's configurations (grids up to 256x256, N up to
	// 1e6).
	Full Scale = iota
	// Medium caps grids at 128x128 and N at 1e5.
	Medium
	// Quick caps grids at 64x64 and N at 1e4 (CI-sized).
	Quick
)

// baseConfig is the shared simulation configuration of Section V:
// Q = 1 nC bunch, tau = 1e-6-equivalent tolerance, LCLS-like optics.
func baseConfig(n, nx int, seed uint64) core.Config {
	return core.Config{
		Beam: phys.Beam{
			NumParticles: n,
			TotalCharge:  1e-9,
			SigmaX:       20e-6,
			SigmaY:       50e-6,
			Energy:       4.3e9,
		},
		NX: nx, NY: nx,
		Kappa: 6,
		Tol:   1e-8,
		Seed:  seed,
		Rigid: true,
	}
}

// KernelName identifies one of the three compared kernels.
type KernelName string

// The three kernels of the paper.
const (
	TwoPhaseRP   KernelName = "Two-Phase-RP"
	HeuristicRP  KernelName = "Heuristic-RP"
	PredictiveRP KernelName = "Predictive-RP"
)

// AllKernels lists the kernels in the paper's historical order.
var AllKernels = []KernelName{TwoPhaseRP, HeuristicRP, PredictiveRP}

// NewAlgorithm constructs the named kernel on a fresh simulated K40.
func NewAlgorithm(name KernelName) kernels.Algorithm {
	return newAlgorithmOn(name, gpusim.New(gpusim.KeplerK40()))
}

// newAlgorithmOn constructs the named kernel on dev.
func newAlgorithmOn(name KernelName, dev *gpusim.Device) kernels.Algorithm {
	switch name {
	case TwoPhaseRP:
		return kernels.NewTwoPhase(dev)
	case HeuristicRP:
		return kernels.NewHeuristic(dev)
	case PredictiveRP:
		return kernels.NewPredictive(dev)
	}
	panic(fmt.Sprintf("experiments: unknown kernel %q", name))
}

// measureKernel runs a simulation with the given kernel until the history
// is warm plus extra steps, and returns the final step's result (the
// steady-state behaviour the paper profiles, averaged over the last
// measure steps).
func measureKernel(cfg core.Config, algo kernels.Algorithm, measure int) (*kernels.StepResult, kernels.HostTimes, float64) {
	s := core.New(cfg)
	s.Algo = algo
	s.Warmup()
	var gpu float64
	var host kernels.HostTimes
	var last *kernels.StepResult
	if measure < 1 {
		measure = 1
	}
	for i := 0; i < measure; i++ {
		s.Advance()
		last = s.Last
		gpu += last.Metrics.Time
		host.Clustering += last.Host.Clustering
		host.Predict += last.Host.Predict
		host.Train += last.Host.Train
	}
	return last, host, gpu / float64(measure)
}

// gridSizes returns the grid resolutions of Table I / Table II under a
// scale.
func gridSizes(s Scale) []int {
	switch s {
	case Quick:
		return []int{32, 64}
	case Medium:
		return []int{64, 128}
	default:
		return []int{64, 128, 256}
	}
}

func particleCounts(s Scale) []int {
	switch s {
	case Quick:
		return []int{10000}
	case Medium:
		return []int{100000}
	default:
		return []int{100000, 1000000}
	}
}

// header renders a fixed-width table header with a rule.
func header(b *strings.Builder, title, cols string) {
	fmt.Fprintf(b, "%s\n%s\n%s\n", title, cols, strings.Repeat("-", len(cols)))
}

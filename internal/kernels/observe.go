package kernels

import (
	"math"

	"beamdyn/internal/access"
	"beamdyn/internal/obs"
)

// Observable is implemented by kernels that accept the telemetry layer.
// core.Simulation forwards its observer to the attached kernel through
// this interface, so user code only wires observability once.
type Observable interface {
	// SetObserver attaches (or, with nil, detaches) the telemetry layer.
	SetObserver(o *obs.Observer)
}

// forecastErrors computes the per-point forecast error — the Euclidean
// distance between the pattern predicted before the step and the pattern
// actually observed during it (Algorithm 1 line 20) — into a fresh slice
// the step result can own. It is only called when the observer is live,
// so the untraced hot path never pays for it.
func forecastErrors(predicted []access.Pattern, points []Point) []float64 {
	errs := make([]float64, len(points))
	for i := range points {
		errs[i] = math.Sqrt(access.Distance2(predicted[i], points[i].Pattern))
	}
	return errs
}

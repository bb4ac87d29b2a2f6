package obs

import "sort"

// DefaultErrBounds are the forecast-error histogram bucket upper bounds,
// in panels (Euclidean distance between the predicted and observed access
// pattern of one grid point). A well-trained kNN forecast sits in the
// sub-panel buckets; drift of the bunch pushes mass rightward, which is
// the degradation signal the predictor_forecast_error series exists to
// expose.
var DefaultErrBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// StepSample is one forecast step's predictor-quality record: the
// forecast-error summary, the fallback behaviour of the adaptive safety
// net, and the host-side model costs. Only a step its kernel planned from
// a trained forecast has one; core.Advance builds it from the step result.
type StepSample struct {
	// Step is the simulation step the sample describes.
	Step int
	// Kernel is the kernel's paper name (a fleet's, for a fleet).
	Kernel string
	// FallbackEntries counts panels that failed the tolerance and entered
	// the adaptive safety net; FallbackRate is entries per grid point.
	FallbackEntries int
	FallbackRate    float64
	// ErrMean/P90/Max summarise the per-point forecast error (Euclidean
	// pattern distance, in panels; see SummarizeErrors); zero when no
	// errors were collected.
	ErrMean, ErrP90, ErrMax float64
	// PredictSec, ClusterSec and TrainSec are the host-side costs of the
	// forecast, RP-CLUSTERING, and ONLINE-LEARNING phases.
	PredictSec, ClusterSec, TrainSec float64
}

// RecordPredictor publishes one forecast step's sample into the registry
// series
//
//	predictor_fallback_rate{kernel}        gauge, entries per point
//	predictor_fallback_entries_total{kernel} counter
//	predictor_forecast_error{kernel}       histogram, panels
//	predictor_train_seconds_total{kernel}  gauge (running sum)
//	predictor_steps_total{kernel}          counter
//
// and emits it as a "predictor" trace event, the per-step series that
// obstool predictor and a bundle's flight.jsonl read. errs are the step's
// per-point forecast errors, observed into the histogram.
func (o *Observer) RecordPredictor(sample StepSample, errs []float64) {
	if o == nil {
		return
	}
	if o.Reg != nil {
		kl := Label{"kernel", sample.Kernel}
		o.Reg.Gauge("predictor_fallback_rate", kl).Set(sample.FallbackRate)
		o.Reg.Counter("predictor_fallback_entries_total", kl).Add(uint64(sample.FallbackEntries))
		o.Reg.Gauge("predictor_train_seconds_total", kl).Add(sample.TrainSec)
		o.Reg.Counter("predictor_steps_total", kl).Inc()
		h := o.Reg.Histogram("predictor_forecast_error", DefaultErrBounds, kl)
		for _, e := range errs {
			h.Observe(e)
		}
	}
	if o.TraceEnabled() {
		o.Trace.emit("predictor", "event", sample.Step, 0, []Attr{
			S("kernel", sample.Kernel),
			F("fallback_rate", sample.FallbackRate),
			I("fallback_entries", sample.FallbackEntries),
			F("err_mean", sample.ErrMean),
			F("err_p90", sample.ErrP90),
			F("err_max", sample.ErrMax),
			F("predict_sec", sample.PredictSec),
			F("cluster_sec", sample.ClusterSec),
			F("train_sec", sample.TrainSec),
		})
	}
}

// SummarizeErrors sorts per-point forecast errors in place and returns
// their mean, nearest-rank median and 90th percentile, and maximum (zeros
// for no errors): the statistics a StepSample and the alert engine's
// err_* signals report.
func SummarizeErrors(errs []float64) (mean, p50, p90, maxErr float64) {
	if len(errs) == 0 {
		return 0, 0, 0, 0
	}
	sort.Float64s(errs)
	var sum float64
	for _, e := range errs {
		sum += e
	}
	return sum / float64(len(errs)), quantile(errs, 0.5), quantile(errs, 0.9), errs[len(errs)-1]
}

// quantile returns the q-quantile of sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

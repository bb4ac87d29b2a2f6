package obs

import (
	"sort"
	"sync"
)

// DefaultErrBounds are the forecast-error histogram bucket upper bounds,
// in panels (Euclidean distance between the predicted and observed access
// pattern of one grid point). A well-trained kNN forecast sits in the
// sub-panel buckets; drift of the bunch pushes mass rightward, which is
// the degradation signal this monitor exists to expose.
var DefaultErrBounds = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32}

// StepSample is one step's predictor-quality record for one kernel: the
// forecast-error distribution, the fallback behaviour of the adaptive
// safety net, and the host-side model costs.
type StepSample struct {
	// Step is the simulation step the sample describes.
	Step int `json:"step"`
	// Kernel is the kernel's paper name.
	Kernel string `json:"kernel"`
	// Trained reports whether a trained model produced the forecast (false
	// during the bootstrap step, when the uniform seed stands in).
	Trained bool `json:"trained"`
	// Points is the number of grid points forecast.
	Points int `json:"points"`
	// FallbackEntries counts panels that failed the tolerance and entered
	// the adaptive safety net; FallbackRate is entries per grid point.
	FallbackEntries int     `json:"fallback_entries"`
	FallbackRate    float64 `json:"fallback_rate"`
	// ErrMean/P50/P90/Max summarise the per-point forecast error (Euclidean
	// pattern distance, in panels); zero when no errors were recorded.
	ErrMean float64 `json:"err_mean"`
	ErrP50  float64 `json:"err_p50"`
	ErrP90  float64 `json:"err_p90"`
	ErrMax  float64 `json:"err_max"`
	// ErrBuckets is the per-step forecast-error histogram over the
	// monitor's bounds (one extra overflow bucket).
	ErrBuckets []uint64 `json:"err_buckets,omitempty"`
	// PredictSec, ClusterSec and TrainSec are the host-side costs of the
	// forecast, RP-CLUSTERING, and ONLINE-LEARNING phases.
	PredictSec float64 `json:"predict_sec"`
	ClusterSec float64 `json:"cluster_sec"`
	TrainSec   float64 `json:"train_sec"`
}

// PredictorMonitor accumulates StepSamples as a bounded series.
type PredictorMonitor struct {
	mu sync.Mutex
	// ErrBounds are the histogram bucket upper bounds used for ErrBuckets;
	// set before the first Record (defaults to DefaultErrBounds).
	ErrBounds []float64
	samples   []StepSample
	max       int
	dropped   int
}

// NewPredictorMonitor returns a monitor keeping at most maxSamples recent
// samples (0 means 4096, enough for any realistic run while bounding a
// long-lived service's memory).
func NewPredictorMonitor(maxSamples int) *PredictorMonitor {
	if maxSamples <= 0 {
		maxSamples = 4096
	}
	return &PredictorMonitor{ErrBounds: DefaultErrBounds, max: maxSamples}
}

// Record stores one sample, evicting the oldest past the capacity.
func (m *PredictorMonitor) Record(s StepSample) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) >= m.max {
		n := copy(m.samples, m.samples[1:])
		m.samples = m.samples[:n]
		m.dropped++
	}
	m.samples = append(m.samples, s)
}

// Samples returns a copy of the retained series, oldest first.
func (m *PredictorMonitor) Samples() []StepSample {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StepSample, len(m.samples))
	copy(out, m.samples)
	return out
}

// Last returns the most recent sample.
func (m *PredictorMonitor) Last() (StepSample, bool) {
	if m == nil {
		return StepSample{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.samples) == 0 {
		return StepSample{}, false
	}
	return m.samples[len(m.samples)-1], true
}

// Dropped returns how many samples were evicted by the capacity bound.
func (m *PredictorMonitor) Dropped() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

// RecordPredictor completes sample from the per-point forecast errors
// (errs may be nil for kernels without a forecast), stores it in the
// monitor, mirrors it into the registry series
//
//	predictor_fallback_rate{kernel}        gauge, entries per point
//	predictor_fallback_entries_total{kernel} counter
//	predictor_forecast_error{kernel}       histogram, panels
//	predictor_train_seconds_total{kernel}  gauge (running sum)
//	predictor_steps_total{kernel}          counter
//
// and emits a "predictor" trace event, so the forecast quality is visible
// as a time series in every telemetry backend at once. errs is sorted in
// place.
func (o *Observer) RecordPredictor(sample StepSample, errs []float64) {
	if o == nil {
		return
	}
	if sample.Points > 0 {
		sample.FallbackRate = float64(sample.FallbackEntries) / float64(sample.Points)
	}
	bounds := DefaultErrBounds
	if o.Pred != nil && len(o.Pred.ErrBounds) > 0 {
		bounds = o.Pred.ErrBounds
	}
	if len(errs) > 0 {
		sample.ErrMean, sample.ErrP50, sample.ErrP90, sample.ErrMax = SummarizeErrors(errs)
		sample.ErrBuckets = bucketize(errs, bounds)
	}
	o.Pred.Record(sample)
	if o.Reg != nil {
		kl := Label{"kernel", sample.Kernel}
		o.Reg.Gauge("predictor_fallback_rate", kl).Set(sample.FallbackRate)
		o.Reg.Counter("predictor_fallback_entries_total", kl).Add(uint64(sample.FallbackEntries))
		o.Reg.Gauge("predictor_train_seconds_total", kl).Add(sample.TrainSec)
		o.Reg.Counter("predictor_steps_total", kl).Inc()
		h := o.Reg.Histogram("predictor_forecast_error", bounds, kl)
		for _, e := range errs {
			h.Observe(e)
		}
	}
	if o.TraceEnabled() {
		o.Trace.emit("predictor", "event", sample.Step, 0, []Attr{
			S("kernel", sample.Kernel),
			{Key: "trained", Value: sample.Trained},
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

// bucketize counts sorted values into bounds' buckets plus overflow.
func bucketize(sorted []float64, bounds []float64) []uint64 {
	out := make([]uint64, len(bounds)+1)
	i := 0
	for b, ub := range bounds {
		for i < len(sorted) && sorted[i] <= ub {
			out[b]++
			i++
		}
	}
	out[len(bounds)] = uint64(len(sorted) - i)
	return out
}

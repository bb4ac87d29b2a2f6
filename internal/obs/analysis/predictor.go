package analysis

import (
	"fmt"
	"sort"
	"strings"

	"beamdyn/internal/obs"
)

// PredictorPoint is one step's predictor-quality record pulled from a
// "predictor" trace event.
type PredictorPoint struct {
	Step         int
	Kernel       string
	FallbackRate float64
	ErrMean      float64
	ErrP90       float64
	TrainSec     float64
}

// PredictorSeries extracts the per-step predictor record from a trace,
// in step order.
func PredictorSeries(events []obs.Event) []PredictorPoint {
	var out []PredictorPoint
	for _, e := range events {
		if e.Name != "predictor" || e.Kind != "event" {
			continue
		}
		p := PredictorPoint{Step: e.Step}
		p.Kernel, _ = attrString(e, "kernel")
		p.FallbackRate, _ = attrFloat(e, "fallback_rate")
		p.ErrMean, _ = attrFloat(e, "err_mean")
		p.ErrP90, _ = attrFloat(e, "err_p90")
		p.TrainSec, _ = attrFloat(e, "train_sec")
		out = append(out, p)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Step < out[j].Step })
	return out
}

// Spike flags one step whose fallback rate jumped away from the run's
// typical behaviour.
type Spike struct {
	Step     int
	Rate     float64
	Baseline float64 // the series median the step is compared against
}

// FallbackSpikes detects steps where the adaptive safety net's entry
// rate spiked: rate > factor x the series median AND rate >= minRate
// (the absolute floor keeps a well-trained run's occasional 2-of-16384
// panels from flagging). When the median is zero — a forecast that is
// usually perfect — any step at or above minRate is a spike. A spiking
// fallback rate is the leading indicator that the bunch distribution
// drifted away from the kNN model's training window and the surrogate
// needs retraining (or a tolerance budget revisit).
func FallbackSpikes(points []PredictorPoint, factor, minRate float64) []Spike {
	if len(points) == 0 {
		return nil
	}
	rates := make([]float64, 0, len(points))
	for _, p := range points {
		rates = append(rates, p.FallbackRate)
	}
	sort.Float64s(rates)
	median := rates[len(rates)/2]
	var out []Spike
	for _, p := range points {
		spike := p.FallbackRate >= minRate &&
			(median == 0 || p.FallbackRate > factor*median)
		if spike {
			out = append(out, Spike{Step: p.Step, Rate: p.FallbackRate, Baseline: median})
		}
	}
	return out
}

// PredictorTable renders the series plus detected spikes for the obstool
// predictor subcommand. The kernel column fits a fleet's label
// ("Fleet[Predictive-RP x2]").
func PredictorTable(points []PredictorPoint, spikes []Spike) string {
	var b strings.Builder
	if len(points) == 0 {
		return "no predictor events in trace (run a predictive kernel with -trace)\n"
	}
	spiked := make(map[int]bool, len(spikes))
	for _, s := range spikes {
		spiked[s.Step] = true
	}
	fmt.Fprintf(&b, "%5s %-23s %13s %10s %10s %10s\n",
		"step", "kernel", "fallback_rate", "err_mean", "err_p90", "train_ms")
	for _, p := range points {
		mark := ""
		if spiked[p.Step] {
			mark = "  <-- fallback spike"
		}
		fmt.Fprintf(&b, "%5d %-23s %13.5f %10.4g %10.4g %10.3f%s\n",
			p.Step, p.Kernel, p.FallbackRate, p.ErrMean, p.ErrP90, p.TrainSec*1e3, mark)
	}
	fmt.Fprintf(&b, "\n%d spike(s) detected\n", len(spikes))
	return b.String()
}

package analysis

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"beamdyn/internal/obs"
)

// SpanStats aggregates every span of one name.
type SpanStats struct {
	Name     string
	Count    int
	TotalSec float64
	MinSec   float64
	MaxSec   float64
	// durs holds every span duration, sorted, for exact quantiles.
	durs []float64
}

// Mean returns the mean span duration.
func (s SpanStats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.TotalSec / float64(s.Count)
}

// Quantile returns the exact nearest-rank q-quantile span duration: the
// smallest duration with at least a fraction q of all spans at or below
// it, the definition the end-to-end benchmark uses for its percentiles.
// It is always an observed duration (0 for no spans).
func (s SpanStats) Quantile(q float64) float64 {
	n := len(s.durs)
	if n == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(q*float64(n))), 1), n)
	return s.durs[rank-1]
}

// Aggregate groups span events by name, accumulating count, total, min,
// max and the sorted durations. Results are sorted by name. Point events
// (kind "event") carry no duration and are ignored.
func Aggregate(events []obs.Event) []SpanStats {
	byName := make(map[string]*SpanStats)
	for _, e := range events {
		if e.Kind != "span" {
			continue
		}
		st, ok := byName[e.Name]
		if !ok {
			st = &SpanStats{Name: e.Name, MinSec: math.Inf(1)}
			byName[e.Name] = st
		}
		st.Count++
		st.TotalSec += e.Dur
		st.MinSec = math.Min(st.MinSec, e.Dur)
		st.MaxSec = math.Max(st.MaxSec, e.Dur)
		st.durs = append(st.durs, e.Dur)
	}
	out := make([]SpanStats, 0, len(byName))
	for _, st := range byName {
		slices.Sort(st.durs)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SummaryTable renders the aggregate as an aligned table (durations in
// milliseconds).
func SummaryTable(stats []SpanStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %7s %12s %10s %10s %10s %10s %10s\n",
		"span", "count", "total_ms", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms")
	for _, s := range stats {
		fmt.Fprintf(&b, "%-28s %7d %12.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			s.Name, s.Count, s.TotalSec*1e3, s.Mean()*1e3,
			s.Quantile(0.5)*1e3, s.Quantile(0.95)*1e3, s.Quantile(0.99)*1e3, s.MaxSec*1e3)
	}
	return b.String()
}

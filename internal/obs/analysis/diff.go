package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"beamdyn/internal/obs"
)

// DiffRow compares one span name across two runs.
type DiffRow struct {
	Name               string
	OldCount, NewCount int
	OldMean, NewMean   float64 // seconds
	OldP95, NewP95     float64
	// MeanDelta is (new-old)/old; +Inf when the span is new-only, NaN
	// when it vanished.
	MeanDelta float64
}

// Regressed reports whether the span's mean grew by more than maxRegress
// (a fraction: 0.1 means +10%). Spans present in only one run never
// count as regressions — they are structural changes, reported but not
// gated, since renaming a span should not break CI comparisons silently.
func (r DiffRow) Regressed(maxRegress float64) bool {
	return r.OldCount > 0 && r.NewCount > 0 && r.MeanDelta > maxRegress
}

// Diff aggregates two traces and joins them per span name, sorted by
// descending mean delta so regressions lead the report.
func Diff(oldEvents, newEvents []obs.Event) []DiffRow {
	oldStats := Aggregate(oldEvents)
	newStats := Aggregate(newEvents)
	byName := make(map[string]*DiffRow)
	for _, s := range oldStats {
		byName[s.Name] = &DiffRow{
			Name: s.Name, OldCount: s.Count,
			OldMean: s.Mean(), OldP95: s.Quantile(0.95),
		}
	}
	for _, s := range newStats {
		r, ok := byName[s.Name]
		if !ok {
			r = &DiffRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.NewCount = s.Count
		r.NewMean = s.Mean()
		r.NewP95 = s.Quantile(0.95)
	}
	out := make([]DiffRow, 0, len(byName))
	for _, r := range byName {
		switch {
		case r.OldCount == 0:
			r.MeanDelta = math.Inf(1)
		case r.NewCount == 0:
			r.MeanDelta = math.NaN()
		case r.OldMean == 0:
			if r.NewMean == 0 {
				r.MeanDelta = 0
			} else {
				r.MeanDelta = math.Inf(1)
			}
		default:
			r.MeanDelta = (r.NewMean - r.OldMean) / r.OldMean
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].MeanDelta, out[j].MeanDelta
		// NaN (vanished spans) sorts last; ties break on name.
		switch {
		case math.IsNaN(di) && math.IsNaN(dj):
			return out[i].Name < out[j].Name
		case math.IsNaN(di):
			return false
		case math.IsNaN(dj):
			return true
		case di != dj:
			return di > dj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Regressions filters the rows that regressed beyond maxRegress.
func Regressions(rows []DiffRow, maxRegress float64) []DiffRow {
	var out []DiffRow
	for _, r := range rows {
		if r.Regressed(maxRegress) {
			out = append(out, r)
		}
	}
	return out
}

// DiffTable renders the comparison (durations in milliseconds).
func DiffTable(rows []DiffRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %7s %7s %10s %10s %8s %10s %10s\n",
		"span", "n_old", "n_new", "mean_old", "mean_new", "delta", "p95_old", "p95_new")
	for _, r := range rows {
		delta := "-"
		switch {
		case math.IsNaN(r.MeanDelta):
			delta = "gone"
		case math.IsInf(r.MeanDelta, 1):
			delta = "new"
		default:
			delta = fmt.Sprintf("%+.1f%%", 100*r.MeanDelta)
		}
		fmt.Fprintf(&b, "%-28s %7d %7d %10.3f %10.3f %8s %10.3f %10.3f\n",
			r.Name, r.OldCount, r.NewCount, r.OldMean*1e3, r.NewMean*1e3,
			delta, r.OldP95*1e3, r.NewP95*1e3)
	}
	return b.String()
}

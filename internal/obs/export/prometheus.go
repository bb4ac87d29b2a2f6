// Package export is the serving half of the telemetry layer: it turns an
// obs.Registry snapshot into the Prometheus text exposition format and
// serves it — together with the same snapshot as a JSON {"metrics": …}
// document (the per-step predictor series lives in the trace), a step-liveness
// health probe that active alerts degrade, the alert engine's state when
// one is attached, and the Go pprof handlers — from an embedded HTTP server
// that beamsim starts with -http. Everything here reads point-in-time
// snapshots, so scraping mid-step never blocks the kernel hot path
// beyond the registry's brief snapshot lock, and a simulation run with
// no server started pays nothing at all.
package export

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"beamdyn/internal/obs"
)

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` comment per metric name followed
// by its series with label sets sorted by key, label values escaped
// (backslash, double quote, newline), and histograms expanded into
// cumulative `_bucket{le=...}` series plus `_sum` and `_count`. Series
// order is deterministic — names sorted, then label strings — so the
// output diffs cleanly between scrapes and golden-files well.
func WritePrometheus(w io.Writer, s obs.Snapshot) error {
	byName := make(map[string][]series)
	for i := range s.Counters {
		c := &s.Counters[i]
		byName[c.Name] = append(byName[c.Name], series{kind: "counter", c: c})
	}
	for i := range s.Gauges {
		g := &s.Gauges[i]
		byName[g.Name] = append(byName[g.Name], series{kind: "gauge", g: g})
	}
	for i := range s.Histograms {
		h := &s.Histograms[i]
		byName[h.Name] = append(byName[h.Name], series{kind: "histogram", h: h})
	}

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		group := byName[name]
		sort.SliceStable(group, func(i, j int) bool {
			return labelString(group[i].labels()) < labelString(group[j].labels())
		})
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, group[0].kind); err != nil {
			return err
		}
		for _, sr := range group {
			ls := labelString(sr.labels())
			switch sr.kind {
			case "counter":
				if _, err := fmt.Fprintf(w, "%s%s %d\n", name, ls, sr.c.Value); err != nil {
					return err
				}
			case "gauge":
				if _, err := fmt.Fprintf(w, "%s%s %s\n", name, ls, formatFloat(sr.g.Value)); err != nil {
					return err
				}
			case "histogram":
				if err := writeHistogram(w, name, sr.h); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// series is one snapshot series of any kind, grouped by name for the
// single-TYPE-line-per-name rule.
type series struct {
	kind string // "counter" | "gauge" | "histogram"
	c    *obs.CounterSnapshot
	g    *obs.GaugeSnapshot
	h    *obs.HistogramSnapshot
}

func (sr series) labels() map[string]string {
	switch {
	case sr.c != nil:
		return sr.c.Labels
	case sr.g != nil:
		return sr.g.Labels
	default:
		return sr.h.Labels
	}
}

// writeHistogram expands one histogram series: the snapshot's per-bucket
// counts become Prometheus' cumulative buckets, always ending in the
// mandatory le="+Inf" bucket. _count is derived from the bucket sum
// rather than the snapshot's Count field: the registry's lock-free
// Observe bumps bucket and count as separate atomics, so a scrape racing
// a writer could otherwise expose +Inf != _count and fail strict
// exposition linters; deriving it keeps every scrape self-consistent.
// A retained exemplar is appended in OpenMetrics syntax
// (`# {trace_id="...",span_id="..."} value`) to the first bucket whose
// upper bound covers the exemplar's value, so trace tooling can jump from
// the worst recent observation straight to its span.
func writeHistogram(w io.Writer, name string, h *obs.HistogramSnapshot) error {
	exIdx := exemplarBucket(h)
	var cum uint64
	for i, b := range h.Buckets {
		cum += b.Count
		le := "+Inf"
		if !math.IsInf(b.UpperBound, 1) {
			le = formatFloat(b.UpperBound)
		}
		suffix := ""
		if i == exIdx {
			suffix = exemplarSuffix(h.Exemplar)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			name, labelStringExtra(h.Labels, "le", le), cum, suffix); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(h.Labels), formatFloat(h.Sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(h.Labels), cum)
	return err
}

// exemplarBucket returns the index of the first bucket covering the
// snapshot's exemplar value, or -1 when there is none.
func exemplarBucket(h *obs.HistogramSnapshot) int {
	if h.Exemplar == nil {
		return -1
	}
	for i, b := range h.Buckets {
		if h.Exemplar.Value <= b.UpperBound || math.IsInf(b.UpperBound, 1) {
			return i
		}
	}
	return -1
}

// exemplarSuffix renders the OpenMetrics exemplar tail for a bucket line.
func exemplarSuffix(ex *obs.ExemplarSnapshot) string {
	var b strings.Builder
	b.WriteString(" # {")
	if ex.Trace != "" {
		fmt.Fprintf(&b, `trace_id="%s"`, escapeLabelValue(ex.Trace))
	}
	if ex.Span != "" {
		if ex.Trace != "" {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `span_id="%s"`, escapeLabelValue(ex.Span))
	}
	b.WriteString("} ")
	b.WriteString(formatFloat(ex.Value))
	return b.String()
}

// labelString renders {k1="v1",k2="v2"} with keys sorted and values
// escaped, or "" for an empty label set.
func labelString(labels map[string]string) string {
	return labelStringExtra(labels, "", "")
}

// labelStringExtra appends one extra pair (the histogram le label) after
// the sorted ordinary labels, matching Prometheus client convention.
func labelStringExtra(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format label escapes: backslash,
// double quote, and line feed.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip decimal, with the special spellings +Inf/-Inf/NaN.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

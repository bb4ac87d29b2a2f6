package export

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"beamdyn/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureRegistry builds the deterministic registry behind the committed
// golden file: every exposition feature is represented — unlabeled and
// labeled counters sharing a name, gauges with values needing the special
// float spellings, label values needing every escape, and multi-series
// histograms.
func fixtureRegistry() *obs.Registry {
	r := obs.NewRegistry()
	r.Counter("sim_steps_total").Add(7)
	r.Counter("gpu_launches_total", obs.Label{Key: "kernel", Value: "predictive"}).Add(42)
	r.Counter("gpu_launches_total", obs.Label{Key: "kernel", Value: "heuristic"}).Add(9)
	r.Counter("fleet_bands_dispatched_total", obs.Label{Key: "device", Value: "0"}).Add(3)
	r.Gauge("predictor_fallback_rate", obs.Label{Key: "kernel", Value: "predictive"}).Set(0.03125)
	r.Gauge("escape_check", obs.Label{Key: "path", Value: "a\\b\"c\nd"}).Set(1)
	r.Gauge("sim_step").Set(12)
	h := r.Histogram("stage_seconds", []float64{0.001, 0.01, 0.1}, obs.Label{Key: "stage", Value: "advance"})
	for _, v := range []float64{0.0005, 0.002, 0.003, 0.05, 2} {
		h.Observe(v)
	}
	h2 := r.Histogram("stage_seconds", []float64{0.001, 0.01, 0.1}, obs.Label{Key: "stage", Value: "advance/push"})
	h2.Observe(0.004)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := WritePrometheus(&b, fixtureRegistry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	lintPrometheus(t, got)
}

func TestWritePrometheusDeterministic(t *testing.T) {
	var a, b strings.Builder
	WritePrometheus(&a, fixtureRegistry().Snapshot())
	WritePrometheus(&b, fixtureRegistry().Snapshot())
	if a.String() != b.String() {
		t.Fatal("two expositions of identical registries differ")
	}
}

func TestWritePrometheusEscaping(t *testing.T) {
	var b strings.Builder
	WritePrometheus(&b, fixtureRegistry().Snapshot())
	want := `escape_check{path="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaped label line %q missing from:\n%s", want, b.String())
	}
	// The output must stay one-sample-per-line: the raw newline in the
	// label value may not survive unescaped.
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "d\"}") {
			t.Fatalf("raw newline leaked into exposition: %q", line)
		}
	}
}

func TestWritePrometheusHistogramSeries(t *testing.T) {
	var b strings.Builder
	WritePrometheus(&b, fixtureRegistry().Snapshot())
	out := b.String()
	for _, want := range []string{
		`stage_seconds_bucket{stage="advance",le="0.001"} 1`,
		`stage_seconds_bucket{stage="advance",le="0.01"} 3`,
		`stage_seconds_bucket{stage="advance",le="0.1"} 4`,
		`stage_seconds_bucket{stage="advance",le="+Inf"} 5`,
		`stage_seconds_count{stage="advance"} 5`,
		`stage_seconds_bucket{stage="advance/push",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing histogram line %q in:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE stage_seconds histogram"); n != 1 {
		t.Errorf("TYPE line for stage_seconds appears %d times, want 1", n)
	}
}

func TestWritePrometheusExemplar(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("steptime_seconds", []float64{0.01, 0.1}, obs.Label{Key: "stage", Value: "advance"})
	h.Observe(0.005)
	h.ObserveExemplar(0.05, "t-000001", "s-000042")
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// The exemplar rides on the FIRST bucket covering its value (le=0.1),
	// in OpenMetrics syntax.
	want := `steptime_seconds_bucket{stage="advance",le="0.1"} 2 # {trace_id="t-000001",span_id="s-000042"} 0.05`
	if !strings.Contains(out, want) {
		t.Fatalf("missing exemplar line %q in:\n%s", want, out)
	}
	if n := strings.Count(out, "# {"); n != 1 {
		t.Fatalf("exemplar suffix appears %d times, want 1:\n%s", n, out)
	}
	if strings.Contains(out, `le="0.01"} 1 #`) {
		t.Fatalf("exemplar leaked onto a non-covering bucket:\n%s", out)
	}

	// Without IDs, no suffix appears anywhere.
	r2 := obs.NewRegistry()
	r2.Histogram("plain_seconds", []float64{1}).Observe(0.5)
	var b2 strings.Builder
	WritePrometheus(&b2, r2.Snapshot())
	if strings.Contains(b2.String(), "# {") {
		t.Fatalf("ID-less histogram grew an exemplar:\n%s", b2.String())
	}
}

// lintPrometheus is a promtool-style validator for the text exposition
// format: every line must be a TYPE comment or a parseable sample, each
// name declares its TYPE exactly once before any sample, and histograms
// must carry monotone cumulative buckets ending in le="+Inf" equal to
// _count, plus a _sum.
func lintPrometheus(t *testing.T, text string) {
	t.Helper()
	typeRe := regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	sampleRe := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)

	types := map[string]string{}
	histBuckets := map[string][]float64{} // series (name+labels sans le) -> cumulative counts
	histCount := map[string]float64{}
	histSum := map[string]bool{}

	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if m := typeRe.FindStringSubmatch(line); m != nil {
			if _, dup := types[m[1]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", i+1, m[1])
			}
			types[m[1]] = m[2]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or other comments are fine
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: not a valid sample line: %q", i+1, line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := parseSampleValue(valStr)
		if err != nil {
			t.Errorf("line %d: bad sample value %q", i+1, valStr)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suffix)
			if trimmed != name && types[trimmed] == "histogram" {
				base = trimmed
				break
			}
		}
		kind, ok := types[base]
		if !ok {
			t.Errorf("line %d: sample %s has no preceding TYPE", i+1, name)
			continue
		}
		if kind == "histogram" {
			key := base + stripLe(labels)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				histBuckets[key] = append(histBuckets[key], val)
				if strings.Contains(labels, `le="+Inf"`) {
					histCount[key+"\x00inf"] = val
				}
			case strings.HasSuffix(name, "_count"):
				histCount[key+"\x00count"] = val
			case strings.HasSuffix(name, "_sum"):
				histSum[key] = true
			default:
				t.Errorf("line %d: bare sample %s for histogram %s", i+1, name, base)
			}
		}
	}
	for key, cum := range histBuckets {
		for i := 1; i < len(cum); i++ {
			if cum[i] < cum[i-1] {
				t.Errorf("histogram %s: cumulative buckets decrease (%v)", key, cum)
			}
		}
		inf, ok := histCount[key+"\x00inf"]
		if !ok {
			t.Errorf("histogram %s: missing le=\"+Inf\" bucket", key)
		}
		count, ok := histCount[key+"\x00count"]
		if !ok {
			t.Errorf("histogram %s: missing _count", key)
		} else if inf != count {
			t.Errorf("histogram %s: +Inf bucket %g != _count %g", key, inf, count)
		}
		if !histSum[key] {
			t.Errorf("histogram %s: missing _sum", key)
		}
	}
}

// stripLe removes the le="..." pair from a rendered label set so bucket
// lines of one series share a key.
func stripLe(labels string) string {
	re := regexp.MustCompile(`,?le="[^"]*"`)
	out := re.ReplaceAllString(labels, "")
	out = strings.ReplaceAll(out, "{,", "{")
	if out == "{}" {
		return ""
	}
	return out
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf", "-Inf", "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

func BenchmarkWritePrometheus(b *testing.B) {
	snap := fixtureRegistry().Snapshot()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := WritePrometheus(&sb, snap); err != nil {
			b.Fatal(err)
		}
	}
}

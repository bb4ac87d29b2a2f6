package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value pair identifying a metric series.
type Label struct{ Key, Value string }

// Registry holds named metric series. Series are created on first use and
// updated with atomic operations, so registered handles are safe to use
// from the kernel hot path (multiple goroutines) without further locking;
// creation takes a registry-wide mutex and should be done once per series,
// outside hot loops, by caching the returned handle. A nil *Registry (and
// the nil handles it returns) makes every call a no-op.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// seriesKey builds the canonical map key: name{k1=v1,k2=v2} with labels
// sorted by key.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// Counter returns the monotonically increasing counter series name{labels},
// creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{name: name, labels: labelMap(labels)}
		r.counters[key] = c
	}
	return c
}

// Gauge returns the gauge series name{labels}, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{name: name, labels: labelMap(labels)}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns the fixed-bucket histogram series name{labels},
// creating it with the given upper bounds on first use (later calls reuse
// the existing buckets; bounds must be sorted ascending, and an implicit
// +Inf bucket is always appended).
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = newHistogram(name, bounds, labels)
		r.hists[key] = h
	}
	return h
}

// Counter is a monotonically increasing uint64 series.
type Counter struct {
	v      atomic.Uint64
	name   string
	labels map[string]string
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 series holding the latest value (Set) or a running
// sum (Add); updates are atomic.
type Gauge struct {
	bits   atomic.Uint64
	name   string
	labels map[string]string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds v to the gauge.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with atomic bucket counts; bucket
// i counts observations <= bounds[i], with one extra overflow bucket. It
// also tracks the sum, minimum and maximum of the observations.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	name    string
	labels  map[string]string

	exMu    sync.Mutex
	exOK    bool
	exValue float64
	exTrace string
	exSpan  string
	exAt    uint64
}

// exemplarMaxAge is how many observations an exemplar survives without
// being beaten before any traced observation may replace it, so the
// exported exemplar tracks the worst *recent* observation rather than the
// all-time maximum of a long run.
const exemplarMaxAge = 1024

func newHistogram(name string, bounds []float64, labels []Label) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	h := &Histogram{
		bounds:  bs,
		buckets: make([]atomic.Uint64, len(bs)+1),
		name:    name,
		labels:  labelMap(labels),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	// The range moves before the count, so a snapshot that counts this
	// observation also finds it inside [min, max].
	updateFloat(&h.minBits, func(m float64) (float64, bool) { return v, v < m })
	updateFloat(&h.maxBits, func(m float64) (float64, bool) { return v, v > m })
	h.count.Add(1)
	updateFloat(&h.sumBits, func(s float64) (float64, bool) { return s + v, true })
}

// updateFloat applies f to the float64 stored in bits with a
// compare-and-swap loop; f reports false to leave the value unchanged.
func updateFloat(bits *atomic.Uint64, f func(old float64) (float64, bool)) {
	for {
		old := bits.Load()
		nw, ok := f(math.Float64frombits(old))
		if !ok || bits.CompareAndSwap(old, math.Float64bits(nw)) {
			return
		}
	}
}

// ObserveExemplar records one value and, when it is the worst observation
// seen recently (or the stored exemplar has aged out), keeps its trace and
// span IDs as the series' exemplar. With empty IDs it degrades to Observe.
func (h *Histogram) ObserveExemplar(v float64, trace, span string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if trace == "" && span == "" {
		return
	}
	n := h.count.Load()
	h.exMu.Lock()
	if !h.exOK || v >= h.exValue || n-h.exAt > exemplarMaxAge {
		h.exOK = true
		h.exValue, h.exTrace, h.exSpan, h.exAt = v, trace, span, n
	}
	h.exMu.Unlock()
}

// Exemplar returns the stored exemplar, if any.
func (h *Histogram) Exemplar() (v float64, trace, span string, ok bool) {
	if h == nil {
		return 0, "", "", false
	}
	h.exMu.Lock()
	defer h.exMu.Unlock()
	return h.exValue, h.exTrace, h.exSpan, h.exOK
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// minMax returns the smallest and largest observed values (0, 0 when
// nothing has been observed).
func (h *Histogram) minMax() (lo, hi float64) {
	if h.Count() == 0 {
		return 0, 0
	}
	return math.Float64frombits(h.minBits.Load()), math.Float64frombits(h.maxBits.Load())
}

// LinearBuckets returns n bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n bounds start, start*factor, start*factor^2, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// CounterSnapshot is one counter series' state.
type CounterSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  uint64            `json:"value"`
}

// GaugeSnapshot is one gauge series' state.
type GaugeSnapshot struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
}

// BucketSnapshot is one histogram bucket: the count of observations at or
// below UpperBound (not cumulative across buckets). The overflow bucket
// has UpperBound +Inf, encoded as JSON null.
type BucketSnapshot struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON encodes +Inf upper bounds as null (JSON has no Inf).
func (b BucketSnapshot) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return []byte(fmt.Sprintf(`{"le":null,"count":%d}`, b.Count)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%g,"count":%d}`, b.UpperBound, b.Count)), nil
}

// ExemplarSnapshot is a histogram series' retained exemplar: the worst
// recent observation and the trace/span that produced it.
type ExemplarSnapshot struct {
	Value float64 `json:"value"`
	Trace string  `json:"trace,omitempty"`
	Span  string  `json:"span,omitempty"`
}

// HistogramSnapshot is one histogram series' state. Min and Max are the
// smallest and largest observed values (both 0 when Count is 0).
type HistogramSnapshot struct {
	Name     string            `json:"name"`
	Labels   map[string]string `json:"labels,omitempty"`
	Count    uint64            `json:"count"`
	Sum      float64           `json:"sum"`
	Min      float64           `json:"min"`
	Max      float64           `json:"max"`
	Buckets  []BucketSnapshot  `json:"buckets"`
	Exemplar *ExemplarSnapshot `json:"exemplar,omitempty"`
}

// Mean returns the mean observed value (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (q in [0, 1]; q is clamped) of the
// observed distribution by linear interpolation inside the bucket the
// quantile rank falls into, assuming observations are spread uniformly
// within each bucket — the same estimator Prometheus' histogram_quantile
// uses. The first bucket's lower edge is taken as 0 (the bound is
// returned unsplit when it is <= 0), and a rank landing in the +Inf
// overflow bucket clips to the largest finite bound, since the overflow
// bucket has no upper edge to interpolate toward. The estimate is then
// clamped into [Min, Max], so it never leaves the observed range. Returns
// NaN for an empty histogram or one with no finite bounds.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	return math.Min(math.Max(h.bucketQuantile(q), h.Min), h.Max)
}

// bucketQuantile is Quantile's within-bucket interpolation, before the
// clamp into the observed range.
func (h HistogramSnapshot) bucketQuantile(q float64) float64 {
	if h.Count == 0 {
		return math.NaN()
	}
	switch {
	case q < 0:
		q = 0
	case q > 1:
		q = 1
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, b := range h.Buckets {
		prev := cum
		cum += float64(b.Count)
		if b.Count == 0 || cum < rank {
			continue
		}
		if math.IsInf(b.UpperBound, 1) {
			if i == 0 {
				return math.NaN()
			}
			return h.Buckets[i-1].UpperBound
		}
		lo := 0.0
		if i > 0 {
			lo = h.Buckets[i-1].UpperBound
		} else if b.UpperBound <= 0 {
			return b.UpperBound
		}
		return lo + (b.UpperBound-lo)*(rank-prev)/float64(b.Count)
	}
	// Unreachable when counts are consistent; be defensive about a
	// snapshot whose Count drifted from its bucket sum.
	return math.NaN()
}

// Snapshot is a point-in-time copy of every series, sorted by series key
// for stable output.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, key := range sortedKeys(r.counters) {
		c := r.counters[key]
		s.Counters = append(s.Counters, CounterSnapshot{Name: c.name, Labels: c.labels, Value: c.Value()})
	}
	for _, key := range sortedKeys(r.gauges) {
		g := r.gauges[key]
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: g.name, Labels: g.labels, Value: g.Value()})
	}
	for _, key := range sortedKeys(r.hists) {
		h := r.hists[key]
		hs := HistogramSnapshot{Name: h.name, Labels: h.labels, Count: h.Count(), Sum: h.Sum()}
		hs.Min, hs.Max = h.minMax()
		if v, trace, span, ok := h.Exemplar(); ok {
			hs.Exemplar = &ExemplarSnapshot{Value: v, Trace: trace, Span: span}
		}
		for i := range h.buckets {
			ub := math.Inf(1)
			if i < len(h.bounds) {
				ub = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, BucketSnapshot{UpperBound: ub, Count: h.buckets[i].Load()})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Table renders the snapshot as an aligned end-of-run summary table.
func (s Snapshot) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %14s\n", "series", "value")
	for _, c := range s.Counters {
		fmt.Fprintf(&b, "%-52s %14d\n", seriesLabel(c.Name, c.Labels), c.Value)
	}
	for _, g := range s.Gauges {
		fmt.Fprintf(&b, "%-52s %14.6g\n", seriesLabel(g.Name, g.Labels), g.Value)
	}
	for _, h := range s.Histograms {
		fmt.Fprintf(&b, "%-52s %7d obs, mean %.4g, p50 %.4g, p95 %.4g\n",
			seriesLabel(h.Name, h.Labels), h.Count, h.Mean(),
			h.Quantile(0.5), h.Quantile(0.95))
	}
	return b.String()
}

func seriesLabel(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := sortedKeys(labels)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind distinguishes the three metric families.
type Kind uint8

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE token.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry holds metric families. Registration and series creation take
// locks; updating a resolved instrument handle is atomic-only. All
// methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric name: its metadata plus the labeled series.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string
	bounds []float64 // histogram bucket upper bounds

	mu     sync.RWMutex
	series map[string]any // label key → *Counter | *Gauge | *Histogram
}

// labelKey joins label values into the series map key. 0x1f (unit
// separator) cannot collide with printable label values in practice and
// keeps the key order-sensitive.
func labelKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// getFamily registers (or finds) a family, enforcing that re-registration
// agrees on kind and label names — the merge rule that lets independent
// subsystems share one registry.
func (r *Registry) getFamily(name, help string, kind Kind, labels []string, bounds []float64) *family {
	checkName(name)
	checkLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %s re-registered with a different kind or label set", name))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: metric %s re-registered with different labels", name))
			}
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: append([]float64(nil), bounds...),
		series: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// drop removes one labeled series from the family. A later with()
// recreates it from zero. This is how layers whose label population can
// change at runtime (the router's per-replica fleet rollup across
// topology swaps) keep the exposition bounded to the live set instead
// of accumulating every label pair ever seen.
func (f *family) drop(values []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.series, labelKey(values))
}

// with returns (creating if needed) the series for the given label
// values. The read path is an RLock + map hit; creation takes the write
// lock once per distinct label set.
func (f *family) with(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	m, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.series[key]; ok {
		return m
	}
	m = make()
	f.series[key] = m
	return m
}

// --- Counter ---------------------------------------------------------

// Counter is a monotonically increasing int64. The update path is a
// single atomic add.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative for the counter contract to hold;
// this is not checked on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With resolves the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() any { return &Counter{} }).(*Counter)
}

// Drop removes the series with the given label values; a later With
// recreates it at zero. Dropping a counter mid-scrape makes its value
// appear to reset, which Prometheus-style consumers already tolerate
// (process restarts look the same) — use it only for series whose
// labeled entity is gone for good.
func (v *CounterVec) Drop(values ...string) { v.f.drop(values) }

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.getFamily(name, help, KindCounter, nil, nil)
	return f.with(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.getFamily(name, help, KindCounter, labels, nil)}
}

// --- Gauge -----------------------------------------------------------

// Gauge is a float64 that may go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// With resolves the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(values, func() any { return &Gauge{} }).(*Gauge)
}

// Drop removes the series with the given label values; a later With
// recreates it at zero.
func (v *GaugeVec) Drop(values ...string) { v.f.drop(values) }

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.getFamily(name, help, KindGauge, nil, nil)
	return f.with(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or finds) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.getFamily(name, help, KindGauge, labels, nil)}
}

// --- Histogram -------------------------------------------------------

// DefBuckets are the default duration buckets in seconds: 1ms to ~100s
// in quarter-decade steps — wide enough for both a block decode and a
// full pipeline stage.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// ExpBuckets returns n buckets growing geometrically from start.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Histogram is a fixed-bucket histogram. Observe is lock-free: a binary
// search over the (immutable) bounds plus three atomic updates.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; implicit +Inf bucket at the end
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram buckets must be sorted")
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = +Inf
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear interpolation
// within the bucket holding it — the usual Prometheus-side estimate,
// computed here so callers without a query engine can report p50/p99.
// The buckets are snapshotted first and the total derived from the
// snapshot (not the live count, which can tear against concurrent
// Observes), so a quantile computed here agrees exactly with one
// computed from the same Gather/exposition state — the /v1/health ↔
// /metrics agreement contract. Values in the +Inf bucket clamp to the
// highest finite bound. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	buckets := make([]int64, len(h.buckets))
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
	}
	return QuantileFromBuckets(h.bounds, buckets, q)
}

// QuantileFromBuckets estimates the q-quantile from a frozen bucket
// snapshot: bounds are the sorted finite upper bounds, buckets the
// per-bucket (not cumulative) counts — one per bound plus the +Inf
// bucket. This is the single interpolation routine shared by
// Histogram.Quantile, the health report and parsed expositions, so
// every consumer of the same bucket state reports the same number.
func QuantileFromBuckets(bounds []float64, buckets []int64, q float64) float64 {
	var total int64
	for _, n := range buckets {
		total += n
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i, n := range buckets {
		if float64(cum+n) >= rank && n > 0 {
			if i >= len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			frac := (rank - float64(cum)) / float64(n)
			return lo + (bounds[i]-lo)*frac
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With resolves the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.with(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	f := r.getFamily(name, help, KindHistogram, nil, bounds)
	return f.with(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	return &HistogramVec{f: r.getFamily(name, help, KindHistogram, labels, bounds)}
}

// --- Snapshots -------------------------------------------------------

// SeriesSnapshot is one labeled series' frozen state.
type SeriesSnapshot struct {
	LabelValues []string
	// Value holds the counter or gauge value (counters as exact integers
	// within float64 range).
	Value float64
	// Histogram state; Buckets are per-bucket (not cumulative) counts,
	// one per bound plus the +Inf bucket.
	Buckets []int64
	Count   int64
	Sum     float64
}

// FamilySnapshot is one metric family's frozen state, series sorted by
// label values.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []string
	Bounds []float64
	Series []SeriesSnapshot
}

// Gather freezes the registry. Families sort by name and series by label
// values, so two Gathers over the same state render identically.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		fs := FamilySnapshot{
			Name:   f.name,
			Help:   f.help,
			Kind:   f.kind,
			Labels: f.labels,
			Bounds: f.bounds,
		}
		f.mu.RLock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			var values []string
			if k != "" || len(f.labels) > 0 {
				values = strings.Split(k, "\x1f")
			}
			ss := SeriesSnapshot{LabelValues: values}
			switch m := f.series[k].(type) {
			case *Counter:
				ss.Value = float64(m.Value())
			case *Gauge:
				ss.Value = m.Value()
			case *Histogram:
				ss.Buckets = make([]int64, len(m.buckets))
				for i := range m.buckets {
					ss.Buckets[i] = m.buckets[i].Load()
				}
				ss.Count = m.Count()
				ss.Sum = m.Sum()
			}
			fs.Series = append(fs.Series, ss)
		}
		f.mu.RUnlock()
		out = append(out, fs)
	}
	return out
}

// Value returns one series' current value (counter or gauge) by name and
// label values. The bool reports whether the series exists.
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	f.mu.RLock()
	m, ok := f.series[labelKey(labelValues)]
	f.mu.RUnlock()
	if !ok {
		return 0, false
	}
	switch m := m.(type) {
	case *Counter:
		return float64(m.Value()), true
	case *Gauge:
		return m.Value(), true
	case *Histogram:
		return m.Sum(), true
	}
	return 0, false
}

// Sum returns the sum of all series of one family (counter/gauge values,
// histogram sums). The bool reports whether the family exists.
func (r *Registry) Sum(name string) (float64, bool) {
	r.mu.Lock()
	f, ok := r.families[name]
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	var total float64
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, m := range f.series {
		switch m := m.(type) {
		case *Counter:
			total += float64(m.Value())
		case *Gauge:
			total += m.Value()
		case *Histogram:
			total += m.Sum()
		}
	}
	return total, true
}

// Package telemetry is AutoComp's runtime observability plane: a
// dependency-free metrics registry (atomic counters, gauges, histograms,
// labeled series) with Prometheus text-exposition rendering, plus a
// structured per-cycle decision-trace stream capturing the
// observe→decide→act funnel.
//
// It is distinct from internal/metrics, which holds the offline
// paper-figure reporting primitives (histogram tables, candlesticks,
// time-series renderers the experiments print). telemetry is what a
// running daemon exports while it works; metrics is what benchrunner
// renders after an experiment finishes.
//
// Instrumentation is strictly passive: recording a sample never takes a
// decision-path lock, never draws from a component RNG stream, and never
// feeds back into the pipeline — scenario golden traces are
// byte-identical with and without a scraper attached (pinned by
// TestTelemetryScrapeDoesNotPerturbGoldenTraces).
//
// The package-level Default registry and tracer are what the instrumented
// packages (core, scheduler, changefeed, fleet, scenario) publish to and
// what autocompd's /metrics endpoint renders. Tests that need isolation
// build their own Registry with NewRegistry.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metric families. All methods are safe for
// concurrent use; sample recording on registered instruments is atomic
// and lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the instrumented packages
// publish to.
func Default() *Registry { return defaultRegistry }

// metric kinds.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric family: a type, a help string, a label
// schema, and the series recorded under it.
type family struct {
	name   string
	help   string
	kind   string
	labels []string
	// buckets apply to histogram families (ascending upper bounds; +Inf
	// is implicit).
	buckets []float64

	mu     sync.RWMutex
	series map[string]*series
}

// series is one labeled instance of a family. value carries float64 bits
// for counters and gauges; histograms use counts/sum/count.
type series struct {
	labelValues []string
	value       atomic.Uint64

	counts  []atomic.Int64 // one per bucket, plus +Inf at the end
	sumBits atomic.Uint64
	count   atomic.Int64
}

func (s *series) addFloat(v float64) {
	for {
		old := s.value.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if s.value.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (s *series) setFloat(v float64) { s.value.Store(math.Float64bits(v)) }
func (s *series) getFloat() float64  { return math.Float64frombits(s.value.Load()) }

func (s *series) observe(v float64, buckets []float64) {
	i := sort.SearchFloat64s(buckets, v)
	s.counts[i].Add(1)
	for {
		old := s.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if s.sumBits.CompareAndSwap(old, nv) {
			break
		}
	}
	s.count.Add(1)
}

// register returns the named family, creating it on first use. A name
// re-registered with a different type, label schema, or bucket layout
// panics — two packages publishing conflicting schemas under one name is
// a programming error that would corrupt the exposition.
func (r *Registry) register(name, help, kind string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !equalStrings(f.labels, labels) || !equalFloats(f.buckets, buckets) {
			panic(fmt.Sprintf("telemetry: %s re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name:    name,
		help:    help,
		kind:    kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]*series),
	}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// seriesFor returns the series under the given label values, creating it
// on first use.
func (f *family) seriesFor(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok = f.series[key]; ok {
		return s
	}
	s = &series{labelValues: append([]string(nil), values...)}
	if f.kind == kindHistogram {
		s.counts = make([]atomic.Int64, len(f.buckets)+1)
	}
	f.series[key] = s
	return s
}

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds one.
func (c Counter) Inc() { c.s.addFloat(1) }

// Add adds v (negative deltas are ignored: counters only go up).
func (c Counter) Add(v float64) {
	if v > 0 {
		c.s.addFloat(v)
	}
}

// Value returns the current count.
func (c Counter) Value() float64 { return c.s.getFloat() }

// Gauge is a value that can go up and down.
type Gauge struct{ s *series }

// Set replaces the value.
func (g Gauge) Set(v float64) { g.s.setFloat(v) }

// Add folds a delta in.
func (g Gauge) Add(v float64) { g.s.addFloat(v) }

// Value returns the current value.
func (g Gauge) Value() float64 { return g.s.getFloat() }

// Histogram counts observations into cumulative buckets.
type Histogram struct {
	f *family
	s *series
}

// Observe records one sample.
func (h Histogram) Observe(v float64) { h.s.observe(v, h.f.buckets) }

// Count returns how many samples have been observed.
func (h Histogram) Count() int64 { return h.s.count.Load() }

// Sum returns the sum of all observed samples.
func (h Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// Counter registers (or fetches) an unlabeled counter family.
func (r *Registry) Counter(name, help string) Counter {
	f := r.register(name, help, kindCounter, nil, nil)
	return Counter{s: f.seriesFor(nil)}
}

// Gauge registers (or fetches) an unlabeled gauge family.
func (r *Registry) Gauge(name, help string) Gauge {
	f := r.register(name, help, kindGauge, nil, nil)
	return Gauge{s: f.seriesFor(nil)}
}

// Histogram registers (or fetches) an unlabeled histogram family over the
// given ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) Histogram {
	f := r.register(name, help, kindHistogram, nil, buckets)
	return Histogram{f: f, s: f.seriesFor(nil)}
}

// CounterVec is a counter family with a label schema.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) CounterVec {
	return CounterVec{f: r.register(name, help, kindCounter, labels, nil)}
}

// With returns the counter under the given label values.
func (v CounterVec) With(values ...string) Counter {
	return Counter{s: v.f.seriesFor(values)}
}

// LazyCounter is one series of a CounterVec, looked up on first use and
// cached: a hot path that bumps a fixed label tuple skips With's key
// join and lock, and the series appears in the exposition only once it
// is first touched, as With's would. Safe for concurrent use.
type LazyCounter struct {
	f      *family
	values []string
	s      atomic.Pointer[series]
}

// Lazy returns the counter under the given label values, resolved on its
// first Inc.
func (v CounterVec) Lazy(values ...string) *LazyCounter {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("telemetry: %s expects %d label values, got %d", v.f.name, len(v.f.labels), len(values)))
	}
	return &LazyCounter{f: v.f, values: values}
}

// Inc adds one.
func (c *LazyCounter) Inc() {
	s := c.s.Load()
	if s == nil {
		// Racing first uses resolve the same series.
		s = c.f.seriesFor(c.values)
		c.s.Store(s)
	}
	s.addFloat(1)
}

// GaugeVec is a gauge family with a label schema.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) GaugeVec {
	return GaugeVec{f: r.register(name, help, kindGauge, labels, nil)}
}

// With returns the gauge under the given label values.
func (v GaugeVec) With(values ...string) Gauge {
	return Gauge{s: v.f.seriesFor(values)}
}

// HistogramVec is a histogram family with a label schema.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) HistogramVec {
	return HistogramVec{f: r.register(name, help, kindHistogram, labels, buckets)}
}

// With returns the histogram under the given label values.
func (v HistogramVec) With(values ...string) Histogram {
	return Histogram{f: v.f, s: v.f.seriesFor(values)}
}

// ExpBuckets returns n ascending bucket bounds starting at start and
// multiplying by factor — the standard latency-histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Value reads back the current value of a counter or gauge series
// without registering anything: ok is false when the family or the
// labeled series does not exist, or when the family is a histogram
// (read those through the Histogram handle). It lets callers outside
// the instrumented package — benchrunner throughput accounting, tests —
// sample a published metric by name.
func (r *Registry) Value(name string, labelValues ...string) (v float64, ok bool) {
	r.mu.RLock()
	f, found := r.families[name]
	r.mu.RUnlock()
	if !found || f.kind == kindHistogram || len(labelValues) != len(f.labels) {
		return 0, false
	}
	key := strings.Join(labelValues, "\xff")
	f.mu.RLock()
	s, found := f.series[key]
	f.mu.RUnlock()
	if !found {
		return 0, false
	}
	return s.getFloat(), true
}

// FamilyCount returns how many metric families are registered.
func (r *Registry) FamilyCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.families)
}
